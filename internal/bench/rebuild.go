package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"bear/internal/core"
	"bear/internal/graph"
)

// RebuildResult is one measured (dataset, churn fraction) cell of the
// rebuild-path sweep: the same dirty set rebuilt both ways from identical
// pre-rebuild state. Speedup is the full path's time over the incremental
// path's — > 1 means the incremental path wins at that churn level.
type RebuildResult struct {
	Dataset     string  `json:"dataset"`
	Churn       float64 `json:"churn"`
	DirtyNodes  int     `json:"dirty_nodes"`
	Blocks      int     `json:"blocks_refactored"`
	TotalBlocks int     `json:"total_blocks"`
	FullMs      float64 `json:"full_ms"`
	IncrMs      float64 `json:"incremental_ms"`
	Speedup     float64 `json:"speedup"`
	// AutoMode/AutoFallback record what RebuildAuto picks for this dirty
	// set under the default policy — the sweep is what justifies the
	// default MaxChurnFraction.
	AutoMode     string `json:"auto_mode"`
	AutoFallback string `json:"auto_fallback,omitempty"`
}

// RebuildBaseline is one committed speedup floor from BENCH_rebuild.json;
// the CI gate fails when a cell's measured speedup falls more than 20%
// below it. Like the kernel gate, it compares the dimensionless ratio of
// two rebuilds on the same machine, so it is stable across hosts of
// different absolute speed.
type RebuildBaseline struct {
	Dataset string  `json:"dataset"`
	Churn   float64 `json:"churn"`
	Speedup float64 `json:"speedup"`
}

// rebuildChurnFractions is the dirty-fraction ladder: well below the
// default auto threshold (0.10), at its edge, and far past it, where the
// full path should win again.
var rebuildChurnFractions = []float64{0.001, 0.01, 0.05, 0.20, 0.50}

// rebuildSweepDatasets are the strongly hub-and-spoke ladder graphs —
// BEAR's target regime, where SlashBurn leaves a small hub core. The
// rebuild split is governed by n₂: re-factoring the Schur complement is a
// floor both paths pay, so on graphs where SlashBurn yields a large hub
// set (routing, web, trust: n₂ in the hundreds) that shared floor caps
// the incremental speedup near 3–4× regardless of churn, while the small
// per-block work shrinks with the dirty set as designed. The sweep spans
// n≈3k–12k with n₂ of 42–84.
var rebuildSweepDatasets = []string{"coauthor", "email", "talk"}

// churnOp is one eligible update: a spoke gains (or re-weights) an edge to
// a hub, which dirties exactly one diagonal block of H₁₁ and never breaks
// block-diagonality, so the incremental path stays applicable at every
// fraction and the sweep times the mechanism, not fallbacks.
type churnOp struct {
	u, hub int
	w      float64
}

// makeChurn picks k distinct dirty spokes and one hub destination each.
func makeChurn(rng *rand.Rand, spokes, hubs []int, k int) []churnOp {
	perm := rng.Perm(len(spokes))
	ops := make([]churnOp, k)
	for i := range ops {
		ops[i] = churnOp{
			u:   spokes[perm[i]],
			hub: hubs[rng.Intn(len(hubs))],
			w:   0.25 + rng.Float64(),
		}
	}
	return ops
}

// rebuildOnce restores a fresh Dynamic sharing the immutable preprocessed
// index p, replays the churn ops, and runs one rebuild in the given mode,
// returning its report. Restoring (rather than reusing one Dynamic) is
// what makes the full and incremental timings comparable: both legs start
// from bit-identical pre-rebuild state.
func rebuildOnce(g *graph.Graph, p *core.Precomputed, ops []churnOp, mode core.RebuildMode, pol *core.RebuildPolicy) (core.RebuildReport, error) {
	dyn, err := core.RestoreDynamic(g, g, p, nil, core.Options{})
	if err != nil {
		return core.RebuildReport{}, err
	}
	if pol != nil {
		dyn.SetRebuildPolicy(*pol)
	}
	for _, op := range ops {
		if err := dyn.AddEdge(op.u, op.hub, op.w); err != nil {
			return core.RebuildReport{}, err
		}
	}
	return dyn.RebuildCtx(context.Background(), mode)
}

// measureRebuildSweep times paired full/incremental rebuilds for each
// requested (dataset, churn) cell with an interleaved min-of-15 protocol:
// the two legs alternate within each round so a slow host phase cannot
// land entirely on one of them, and each leg reports its best round.
// wanted filters the cells (nil = the whole default sweep), letting the
// regression gate re-measure only the committed baselines.
func measureRebuildSweep(cfg Config, wanted func(dataset string, churn float64) bool) ([]RebuildResult, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	const rounds = 15
	var out []RebuildResult
	for _, name := range rebuildSweepDatasets {
		d, err := DatasetByName(name)
		if err != nil {
			return nil, err
		}
		g := d.Make(cfg.Scale)
		// A Dynamic's own preprocessing retains the Schur-assembly cache
		// the incremental leg patches; every leg restores from its index.
		dyn, err := core.NewDynamic(g, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("rebuild %s: %w", name, err)
		}
		p := dyn.Precomputed()
		n := g.N()
		var hubs, spokes []int
		for u := 0; u < n; u++ {
			if p.IsHub(u) {
				hubs = append(hubs, u)
			} else {
				spokes = append(spokes, u)
			}
		}
		if len(hubs) == 0 || len(spokes) == 0 {
			return nil, fmt.Errorf("rebuild %s: degenerate partition (%d hubs, %d spokes)", name, len(hubs), len(spokes))
		}
		for _, f := range rebuildChurnFractions {
			if wanted != nil && !wanted(name, f) {
				continue
			}
			k := int(math.Round(f * float64(n)))
			if k < 1 {
				k = 1
			}
			if k > len(spokes) {
				k = len(spokes)
			}
			ops := makeChurn(rng, spokes, hubs, k)
			// The explicit-mode legs run under an uncapped churn policy so
			// the incremental mechanism is timed at every fraction — the
			// point of the high-churn cells is to show where it loses.
			uncapped := core.RebuildPolicy{MaxChurnFraction: 1, MaxFillRatio: math.Inf(1)}
			fullMin, incrMin := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
			var incrRep core.RebuildReport
			for r := 0; r < rounds; r++ {
				repI, err := rebuildOnce(g, p, ops, core.RebuildIncremental, &uncapped)
				if err != nil {
					return nil, fmt.Errorf("rebuild %s churn %g (incremental): %w", name, f, err)
				}
				repF, err := rebuildOnce(g, p, ops, core.RebuildFull, nil)
				if err != nil {
					return nil, fmt.Errorf("rebuild %s churn %g (full): %w", name, f, err)
				}
				if repI.TimeTotal < incrMin {
					incrMin, incrRep = repI.TimeTotal, repI
				}
				if repF.TimeTotal < fullMin {
					fullMin = repF.TimeTotal
				}
			}
			// One auto probe under the default policy records which path
			// auto actually takes at this churn level.
			repA, err := rebuildOnce(g, p, ops, core.RebuildAuto, nil)
			if err != nil {
				return nil, fmt.Errorf("rebuild %s churn %g (auto): %w", name, f, err)
			}
			out = append(out, RebuildResult{
				Dataset:      name,
				Churn:        f,
				DirtyNodes:   k,
				Blocks:       incrRep.BlocksRefactored,
				TotalBlocks:  incrRep.TotalBlocks,
				FullMs:       float64(fullMin) / float64(time.Millisecond),
				IncrMs:       float64(incrMin) / float64(time.Millisecond),
				Speedup:      float64(fullMin) / float64(incrMin),
				AutoMode:     string(repA.Mode),
				AutoFallback: repA.FallbackReason,
			})
		}
	}
	return out, nil
}

// RunRebuild sweeps the churn ladder, rebuilding each dirty set both fully
// and incrementally from identical state (bearbench -exp rebuild). The
// committed headline numbers live in BENCH_rebuild.json.
func RunRebuild(cfg Config) ([]*Table, error) {
	results, err := measureRebuildSweep(cfg, nil)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Rebuild paths: full re-preprocess vs incremental dirty-block surgery",
		Note:    "interleaved min-of-15 per leg from identical pre-rebuild state; auto column is the default-policy decision",
		Headers: []string{"dataset", "churn", "dirty", "blocks", "full_ms", "incr_ms", "speedup", "auto"},
	}
	for _, r := range results {
		auto := r.AutoMode
		if r.AutoFallback != "" {
			auto = fmt.Sprintf("%s (%s)", r.AutoMode, r.AutoFallback)
		}
		t.AddRow(r.Dataset, fmt.Sprintf("%g%%", r.Churn*100),
			r.DirtyNodes, fmt.Sprintf("%d/%d", r.Blocks, r.TotalBlocks),
			fmt.Sprintf("%.2f", r.FullMs), fmt.Sprintf("%.2f", r.IncrMs),
			fmt.Sprintf("%.2fx", r.Speedup), auto)
	}
	return []*Table{t}, nil
}

// CheckRebuild re-measures the committed (dataset, churn) cells and
// compares them against the baselines in BENCH_rebuild.json (bearbench
// -exp rebuild -baseline FILE): any cell whose measured speedup falls
// below 80% of its committed speedup fails the gate. Only the committed
// cells are re-measured, so the gate skips the expensive high-churn tail.
func CheckRebuild(cfg Config, baselinePath string) error {
	return gate[RebuildBaseline, RebuildResult]{
		sweep:     "rebuild",
		key:       func(b RebuildBaseline) string { return rebuildCell(b.Dataset, b.Churn) },
		resultKey: func(r RebuildResult) string { return rebuildCell(r.Dataset, r.Churn) },
		measure: func(committed map[string]bool) ([]RebuildResult, error) {
			return measureRebuildSweep(cfg, func(dataset string, churn float64) bool {
				return committed[rebuildCell(dataset, churn)]
			})
		},
		check: func(key string, b RebuildBaseline, r RebuildResult) error {
			return floor(key, "speedup", r.Speedup, b.Speedup)
		},
	}.run(baselinePath)
}

// rebuildCell is the gate key of one (dataset, churn) cell.
func rebuildCell(dataset string, churn float64) string {
	return fmt.Sprintf("%s/%g", dataset, churn)
}
