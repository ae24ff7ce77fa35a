package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"bear/internal/core"
	"bear/internal/ordering"
)

// OrderingResult is one measured (dataset, ordering) cell of the
// ordering-engine sweep: the four quantities an ordering trades off —
// fill (stored entries in the precomputed matrices), memory, one-time
// preprocessing cost, and steady-state single-seed query latency — plus
// the structural outputs (block count, hub count) that explain them.
// The ratio columns compare against SlashBurn on the same dataset:
// FillVsSlashburn < 1 and QuerySpeedupVsSlashburn > 1 both mean the
// engine beats the paper's default.
type OrderingResult struct {
	Dataset                 string  `json:"dataset"`
	Ordering                string  `json:"ordering"`
	Blocks                  int     `json:"blocks"`
	Hubs                    int     `json:"hubs"`
	NNZ                     int64   `json:"nnz"`
	Bytes                   int64   `json:"bytes"`
	PreprocessMs            float64 `json:"preprocess_ms"`
	QueryNsPerOp            float64 `json:"query_ns_per_op"`
	FillVsSlashburn         float64 `json:"fill_vs_slashburn"`
	QuerySpeedupVsSlashburn float64 `json:"query_speedup_vs_slashburn"`
}

// OrderingBaseline is one committed row from BENCH_orderings.json. The
// CI gate checks two dimensionless ratios: fill (deterministic for a
// fixed graph and engine, so any drift means the engine or the datasets
// changed) and query speedup (timing-based, so gated with the same 20%
// slack as the kernel sweep). Preprocessing time is reported but never
// gated — it is the noisiest of the four axes on shared machines.
type OrderingBaseline struct {
	Dataset                 string  `json:"dataset"`
	Ordering                string  `json:"ordering"`
	FillVsSlashburn         float64 `json:"fill_vs_slashburn"`
	QuerySpeedupVsSlashburn float64 `json:"query_speedup_vs_slashburn"`
}

// orderingSweepEngines lists the built-in engines with the SlashBurn
// baseline first, so measurement loops can divide by index 0.
func orderingSweepEngines() []string {
	out := []string{ordering.Default}
	for _, name := range ordering.Names() {
		if name != ordering.Default {
			out = append(out, name)
		}
	}
	return out
}

// measureOrderingQueriesNs times single-seed queries through each
// preprocessed index with the interleaved min-of-batches protocol of
// measureLayoutsNs: batch size calibrated to ~2ms on the first index
// (the SlashBurn baseline), indexes timed round-robin one batch per
// round, best batch each. One op is one QueryToCtx over the shared seed
// set, reusing a workspace so the measurement is allocation-free.
func measureOrderingQueriesNs(ps []*core.Precomputed, seeds []int) ([]float64, error) {
	const batchTarget = 2 * time.Millisecond
	const rounds = 9
	ctx := context.Background()
	dst := make([]float64, ps[0].N)
	wss := make([]*core.Workspace, len(ps))
	for i, p := range ps {
		wss[i] = p.AcquireWorkspace()
		defer p.ReleaseWorkspace(wss[i])
		// Warm pass: surfaces errors once so the timed loops can ignore them.
		for _, s := range seeds {
			if err := p.QueryToCtx(ctx, dst, s, wss[i]); err != nil {
				return nil, fmt.Errorf("bench: ordering query seed %d: %w", s, err)
			}
		}
	}
	reps := 1
	for reps < 1<<20 {
		start := time.Now()
		for r := 0; r < reps; r++ {
			for _, s := range seeds {
				ps[0].QueryToCtx(ctx, dst, s, wss[0])
			}
		}
		if time.Since(start) >= batchTarget {
			break
		}
		reps *= 2
	}
	best := make([]float64, len(ps))
	for i := range best {
		best[i] = math.Inf(1)
	}
	for b := 0; b < rounds; b++ {
		for i, p := range ps {
			start := time.Now()
			for r := 0; r < reps; r++ {
				for _, s := range seeds {
					p.QueryToCtx(ctx, dst, s, wss[i])
				}
			}
			if ns := float64(time.Since(start).Nanoseconds()) / float64(reps*len(seeds)); ns < best[i] {
				best[i] = ns
			}
		}
	}
	return best, nil
}

// measureOrderingSweep preprocesses each ladder dataset under every
// built-in ordering engine and measures the four-way trade-off,
// returning one row per (dataset, ordering) with ratios vs SlashBurn.
func measureOrderingSweep(cfg Config) ([]OrderingResult, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	engines := orderingSweepEngines()
	var out []OrderingResult
	for _, name := range kernelSweepDatasets {
		d, err := DatasetByName(name)
		if err != nil {
			return nil, err
		}
		g := d.Make(cfg.Scale)
		ps := make([]*core.Precomputed, len(engines))
		for i, eng := range engines {
			p, err := core.Preprocess(g, core.Options{Ordering: eng})
			if err != nil {
				return nil, fmt.Errorf("orderings %s/%s: %w", name, eng, err)
			}
			ps[i] = p
		}
		seeds := RandomSeeds(g.N(), cfg.QuerySeeds, rng)
		ns, err := measureOrderingQueriesNs(ps, seeds)
		if err != nil {
			return nil, err
		}
		baseNNZ, baseNs := ps[0].NNZ(), ns[0]
		for i, eng := range engines {
			out = append(out, OrderingResult{
				Dataset:                 name,
				Ordering:                eng,
				Blocks:                  len(ps[i].Blocks),
				Hubs:                    ps[i].N2,
				NNZ:                     ps[i].NNZ(),
				Bytes:                   ps[i].Bytes(),
				PreprocessMs:            float64(ps[i].Stats.TimeTotal.Microseconds()) / 1e3,
				QueryNsPerOp:            ns[i],
				FillVsSlashburn:         float64(ps[i].NNZ()) / float64(baseNNZ),
				QuerySpeedupVsSlashburn: baseNs / ns[i],
			})
		}
	}
	return out, nil
}

// RunOrderings compares the pluggable ordering engines on the Fig-6
// graph ladder (bearbench -exp orderings): fill, memory, preprocessing
// time, and query latency for each of slashburn and mindeg. This sweep
// has no counterpart in the paper, which evaluates SlashBurn only; the
// committed headline numbers live in BENCH_orderings.json.
func RunOrderings(cfg Config) ([]*Table, error) {
	results, err := measureOrderingSweep(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ordering engines: fill / memory / preprocess / query four-way sweep (Fig-6 graph ladder)",
		Note:    "ratios are vs slashburn on the same dataset: fill < 1 and speedup > 1 beat the default; query ns/op is interleaved min-of-9-batches",
		Headers: []string{"dataset", "ordering", "blocks", "hubs", "nnz", "bytes", "preprocess ms", "query ns/op", "fill vs sb", "query speedup"},
	}
	for _, r := range results {
		t.AddRow(r.Dataset, r.Ordering, r.Blocks, r.Hubs, r.NNZ, r.Bytes,
			fmt.Sprintf("%.2f", r.PreprocessMs), r.QueryNsPerOp,
			fmt.Sprintf("%.3fx", r.FillVsSlashburn), fmt.Sprintf("%.2fx", r.QuerySpeedupVsSlashburn))
	}
	return []*Table{t}, nil
}

// CheckOrderings re-measures the ordering sweep and compares it against
// the baselines committed in BENCH_orderings.json (bearbench -exp
// orderings -baseline FILE). Fill ratios are deterministic, so a
// measured ratio more than 25% above its committed value fails — that
// only happens when an engine or a dataset generator changed, and the
// committed numbers must be regenerated deliberately. Query speedups
// get the kernel gate's 20% timing slack.
func CheckOrderings(cfg Config, baselinePath string) error {
	return gate[OrderingBaseline, OrderingResult]{
		sweep:     "ordering",
		key:       func(b OrderingBaseline) string { return b.Dataset + "/" + b.Ordering },
		resultKey: func(r OrderingResult) string { return r.Dataset + "/" + r.Ordering },
		measure:   func(map[string]bool) ([]OrderingResult, error) { return measureOrderingSweep(cfg) },
		check: func(key string, b OrderingBaseline, r OrderingResult) error {
			return errors.Join(
				ceiling(key, "fill ratio", r.FillVsSlashburn, b.FillVsSlashburn),
				floor(key, "query speedup", r.QuerySpeedupVsSlashburn, b.QuerySpeedupVsSlashburn))
		},
	}.run(baselinePath)
}
