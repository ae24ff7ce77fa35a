package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bear/internal/graph"
	"bear/internal/graph/gen"
	"bear/internal/obsv"
)

// sameBits fails unless got and want hold the same float64 bit patterns,
// so a -0 where the reference has +0 is a failure too.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d is %v (%#x), reference %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// tracedStages runs fn with a trace in its context and reports whether
// the Schur stage ran, failing unless the forward stage did.
func tracedStages(t *testing.T, what string, fn func(ctx context.Context) error) (schur bool) {
	t.Helper()
	tr := obsv.NewTrace()
	if err := fn(obsv.WithTrace(context.Background(), tr)); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	got := countSpans(tr.Spans())
	if got[obsv.SpanForwardSolve] == 0 {
		t.Fatalf("%s: no forward_solve span in %v", what, tr.Spans())
	}
	if got[obsv.SpanSchurSolve] == 0 && len(got) != 1 {
		t.Fatalf("%s: skipped the Schur stage but recorded %v, want forward_solve alone", what, tr.Spans())
	}
	return got[obsv.SpanSchurSolve] > 0
}

// unitVector returns w·e_seed of length n.
func unitVector(n, seed int, w float64) []float64 {
	q := make([]float64, n)
	q[seed] = w
	return q
}

// TestIsolatedSeedBitIdentical is the contract of the isolated-seed
// shortcut (solveIsolated): a right-hand side whose block has no edge into
// the hubs skips the Schur stage, and every query shape still returns the
// unrestricted pipeline's bits (loadDense + solveLoaded, which never takes
// the shortcut), zero signs included. The shortcut must fire for exactly
// the fixture's isolated seeds, counted here from the traces.
func TestIsolatedSeedBitIdentical(t *testing.T) {
	core := testGraphs(1)
	graphs := map[string]*graph.Graph{
		"rmat":       core["rmat"],
		"disconnect": core["disconnect"],
		"rmat08":     gen.RMAT(gen.NewRMATPul(512, 3000, 0.8, 11)),
	}
	settings := map[string]Options{
		"exact":     {},
		"approx":    {DropTol: 1e-6},
		"laplacian": {Laplacian: true},
		"mindeg":    {Ordering: "mindeg"},
	}
	wantIsolated := map[string]int{
		"rmat/exact": 102, "rmat/approx": 102, "rmat/laplacian": 102, "rmat/mindeg": 101,
		"disconnect/exact": 42, "disconnect/approx": 42, "disconnect/laplacian": 42, "disconnect/mindeg": 80,
		"rmat08/exact": 325, "rmat08/approx": 325, "rmat08/laplacian": 325, "rmat08/mindeg": 321,
	}
	for gname, g := range graphs {
		for sname, opts := range settings {
			name := gname + "/" + sname
			t.Run(name, func(t *testing.T) {
				d, err := NewDynamic(g, opts)
				if err != nil {
					t.Fatalf("NewDynamic: %v", err)
				}
				p := d.Precomputed()
				n := p.N
				refs := make([][]float64, n)
				isolated := make([]bool, n)
				var isolatedSeeds []int
				garbage := make([]float64, n)
				for seed := 0; seed < n; seed++ {
					ref := generalQuery(p, unitVector(n, seed, 1))
					refs[seed] = ref
					what := fmt.Sprintf("seed %d", seed)

					got, err := p.Query(seed)
					if err != nil {
						t.Fatalf("Query(%d): %v", seed, err)
					}
					sameBits(t, what+" Query", got, ref)

					for i := range garbage {
						garbage[i] = math.NaN()
					}
					isolated[seed] = !tracedStages(t, what+" QueryToCtx", func(ctx context.Context) error {
						return p.QueryToCtx(ctx, garbage, seed, nil)
					})
					sameBits(t, what+" QueryToCtx", garbage, ref)
					if isolated[seed] {
						isolatedSeeds = append(isolatedSeeds, seed)
					}

					// A one-hot distribution of any weight is the seed query
					// scaled; the reference solves the same vector.
					q := unitVector(n, seed, 0.75)
					got, err = p.QueryDist(q)
					if err != nil {
						t.Fatalf("QueryDist(e_%d): %v", seed, err)
					}
					sameBits(t, what+" one-hot QueryDist", got, generalQuery(p, q))

					for _, k := range []int{1, 10, 100} {
						var res *TopKResult
						schur := tracedStages(t, fmt.Sprintf("%s QueryTopK k=%d", what, k), func(ctx context.Context) (err error) {
							res, err = d.QueryTopKCtx(ctx, seed, k)
							return err
						})
						if schur == isolated[seed] {
							t.Fatalf("%s k=%d: top-k ran the Schur stage %v, single-seed query %v", what, k, schur, !isolated[seed])
						}
						if isolated[seed] && (res.Stats.Fallback != "" || res.Stats.BlocksSolved != 1) {
							t.Fatalf("%s k=%d: isolated top-k stats %+v, want 1 block solved and no fallback", what, k, res.Stats)
						}
						want := TopK(ref, k)
						if len(res.Nodes) != len(want) || len(res.Scores) != len(want) {
							t.Fatalf("%s k=%d: %d nodes / %d scores, want %d", what, k, len(res.Nodes), len(res.Scores), len(want))
						}
						for i, v := range res.Nodes {
							if v != want[i] || math.Float64bits(res.Scores[i]) != math.Float64bits(ref[v]) {
								t.Fatalf("%s k=%d: rank %d is node %d score %v, reference node %d score %v",
									what, k, i, v, res.Scores[i], want[i], ref[want[i]])
							}
						}
					}
				}
				if len(isolatedSeeds) != wantIsolated[name] {
					t.Fatalf("shortcut fired for %d seeds, want %d", len(isolatedSeeds), wantIsolated[name])
				}

				// One batch over every seed, shuffled: isolated seeds are
				// answered first, the rest in chunks of the batch width.
				rng := rand.New(rand.NewSource(7))
				seeds := rng.Perm(n)
				out, err := p.QueryBatch(seeds, 2)
				if err != nil {
					t.Fatalf("QueryBatch: %v", err)
				}
				for i, seed := range seeds {
					sameBits(t, fmt.Sprintf("batch seed %d", seed), out[i], refs[seed])
				}
				// A batch of isolated seeds alone never reaches a chunk.
				if len(isolatedSeeds) > 0 {
					iso := make([][]float64, len(isolatedSeeds))
					for i := range iso {
						iso[i] = make([]float64, n)
					}
					if tracedStages(t, "isolated batch", func(ctx context.Context) error {
						return p.QueryBatchToCtx(ctx, iso, isolatedSeeds, 2)
					}) {
						t.Fatal("a batch of isolated seeds ran the Schur stage")
					}
				}

				// Random 3-seed dense vectors: half drawn from the isolated
				// seeds only, which must take the shortcut, half from any
				// node, which take it only if all three are isolated.
				for trial := 0; trial < 60; trial++ {
					q := make([]float64, n)
					all := true
					for j := 0; j < 3; j++ {
						v := rng.Intn(n)
						if trial%2 == 0 && len(isolatedSeeds) > 0 {
							v = isolatedSeeds[rng.Intn(len(isolatedSeeds))]
						}
						q[v] += 0.1 + rng.Float64()
						all = all && isolated[v]
					}
					want := generalQuery(p, q)
					dst := make([]float64, n)
					schur := tracedStages(t, fmt.Sprintf("dense trial %d", trial), func(ctx context.Context) error {
						return p.QueryDistToCtx(ctx, dst, q, nil)
					})
					if schur == all {
						t.Fatalf("dense trial %d: Schur stage ran %v with all support isolated %v", trial, schur, all)
					}
					sameBits(t, fmt.Sprintf("dense trial %d", trial), dst, want)
				}
			})
		}
	}
}

// firstIsolatedSeed returns the lowest-id node whose block is isolated,
// failing the test when there is none.
func firstIsolatedSeed(t *testing.T, p *Precomputed) int {
	t.Helper()
	for v := 0; v < p.N; v++ {
		if _, ok := p.isolatedBlock(p.Perm[v]); ok {
			return v
		}
	}
	t.Fatal("fixture has no isolated seed")
	return -1
}

// TestIsolatedFlagFollowsFactors: the flag is derived from the stored H₂₁
// each time the factors change, so an incremental rebuild, Save/Load and
// a snapshot restore never answer from a stale flag.
func TestIsolatedFlagFollowsFactors(t *testing.T) {
	ctx := context.Background()
	d, err := NewDynamic(testGraphs(1)["rmat"], Options{})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	p := d.Precomputed()
	seed := firstIsolatedSeed(t, p)
	hub := p.InvPerm[p.N1]

	rebuild := func(step string) *Precomputed {
		t.Helper()
		pinned := pinnedFullPrecomputed(t, d.Graph(), d.Precomputed(), d.Options())
		rep, err := d.RebuildCtx(ctx, RebuildIncremental)
		if err != nil {
			t.Fatalf("%s: incremental rebuild: %v", step, err)
		}
		if rep.Mode != RebuildIncremental {
			t.Fatalf("%s: rebuild ran %s (fallback %q), want incremental", step, rep.Mode, rep.FallbackReason)
		}
		got := d.Precomputed()
		for v := 0; v < got.N; v++ {
			_, a := got.isolatedBlock(got.Perm[v])
			_, b := pinned.isolatedBlock(pinned.Perm[v])
			if a != b {
				t.Fatalf("%s: node %d flagged %v, pinned full rebuild %v", step, v, a, b)
			}
		}
		for _, v := range []int{seed, hub, 0, got.N - 1} {
			a, err := got.Query(v)
			if err != nil {
				t.Fatal(err)
			}
			b, err := pinned.Query(v)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("%s: Query(%d) vs pinned full rebuild", step, v), a, b)
		}
		return got
	}

	// An edge from the isolated seed into a hub unflags its block.
	if err := d.AddEdge(seed, hub, 1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	got := rebuild("add hub edge")
	if _, ok := got.isolatedBlock(got.Perm[seed]); ok {
		t.Fatalf("seed %d still flagged after gaining an edge to hub %d", seed, hub)
	}
	if !tracedStages(t, "unflagged seed", func(ctx context.Context) error {
		return got.QueryToCtx(ctx, make([]float64, got.N), seed, nil)
	}) {
		t.Fatalf("unflagged seed %d skipped the Schur stage", seed)
	}

	// Removing the block's only hub edge flags it again.
	if err := d.RemoveEdge(seed, hub); err != nil {
		t.Fatalf("RemoveEdge: %v", err)
	}
	got = rebuild("remove hub edge")
	if _, ok := got.isolatedBlock(got.Perm[seed]); !ok {
		t.Fatalf("seed %d not flagged after losing its only hub edge", seed)
	}

	before := make([][]float64, got.N)
	for v := range before {
		if before[v], err = d.Query(v); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := got.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	buf.Reset()
	if err := d.SaveState(&buf); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	restored, err := LoadDynamic(&buf)
	if err != nil {
		t.Fatalf("LoadDynamic: %v", err)
	}
	for v := range before {
		a, err := loaded.Query(v)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("Query(%d) after Save/Load", v), a, before[v])
		b, err := restored.Query(v)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("Query(%d) after snapshot restore", v), b, before[v])
	}
}

// checkIsolatedBits fails unless every block's isolated bit matches its
// definition: no stored H₂₁ entry lies in the block's columns.
func checkIsolatedBits(t *testing.T, what string, p *Precomputed) {
	t.Helper()
	for bi := range p.Blocks {
		lo, hi := p.BlockOffsets[bi], p.BlockOffsets[bi+1]
		want := true
		for _, j := range p.H21.ColIdx {
			if j >= lo && j < hi {
				want = false
				break
			}
		}
		if got := p.blockIsolated(bi); got != want {
			t.Fatalf("%s: block %d [%d,%d) isolated = %v, want %v", what, bi, lo, hi, got, want)
		}
	}
}

// TestIsolatedBitsMatchDefinition checks the isolated bits against their
// definition on every fixture graph after Preprocess, after a Save/Load
// round trip, and after incremental rebuilds that give a spoke its first
// hub edge and take every hub edge away from another.
func TestIsolatedBitsMatchDefinition(t *testing.T) {
	for name, g := range testGraphs(5) {
		t.Run(name, func(t *testing.T) {
			p, err := Preprocess(g, Options{K: 2})
			if err != nil {
				t.Fatalf("Preprocess: %v", err)
			}
			checkIsolatedBits(t, "Preprocess", p)
			var buf bytes.Buffer
			if err := p.Save(&buf); err != nil {
				t.Fatalf("Save: %v", err)
			}
			loaded, err := Load(&buf)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			checkIsolatedBits(t, "Load", loaded)

			d, err := NewDynamic(g, Options{K: 2})
			if err != nil {
				t.Fatalf("NewDynamic: %v", err)
			}
			p = d.Precomputed()
			if p.N1 == 0 || p.N2 == 0 {
				return // no spoke-to-hub edge to add or remove
			}
			hub := p.InvPerm[p.N1]
			gained, lost := -1, -1
			for pos := 0; pos < p.N1 && (gained < 0 || lost < 0); pos++ {
				u := p.InvPerm[pos]
				_, iso := p.isolatedBlock(pos)
				switch {
				case iso && gained < 0:
					gained = u
				case !iso && lost < 0 && len(hubDestinations(d.Graph(), p, u)) > 0:
					lost = u
				}
			}
			if gained >= 0 {
				if err := d.AddEdge(gained, hub, 1); err != nil {
					t.Fatalf("AddEdge: %v", err)
				}
			}
			if lost >= 0 {
				for _, v := range hubDestinations(d.Graph(), p, lost) {
					if err := d.RemoveEdge(lost, v); err != nil {
						t.Fatalf("RemoveEdge: %v", err)
					}
				}
			}
			if d.PendingNodes() == 0 {
				return
			}
			rep, err := d.RebuildCtx(context.Background(), RebuildIncremental)
			if err != nil {
				t.Fatalf("incremental rebuild: %v", err)
			}
			if rep.Mode != RebuildIncremental {
				t.Fatalf("rebuild ran %s, want incremental", rep.Mode)
			}
			checkIsolatedBits(t, "incremental rebuild", d.Precomputed())
		})
	}
}

// hubDestinations lists u's out-neighbors that are hubs.
func hubDestinations(g *graph.Graph, p *Precomputed, u int) []int {
	var hubs []int
	dst, _ := g.Out(u)
	for _, v := range dst {
		if p.IsHub(v) {
			hubs = append(hubs, v)
		}
	}
	return hubs
}
