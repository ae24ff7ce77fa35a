package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"bear/internal/graph/gen"
)

// TestQueryBatchBitIdenticalAcrossVariants is the batch equivalence
// guarantee: for seeds covering every diagonal block and every hub —
// duplicated and shuffled so chunks mix blocks, hubs, and repeats — the
// blocked multi-RHS solver must produce exactly the same bits as the
// single-seed path, across the Laplacian, drop-tolerance, and
// no-hub-order variants.
func TestQueryBatchBitIdenticalAcrossVariants(t *testing.T) {
	for name, g := range testGraphs(95) {
		variants := map[string]Options{
			"exact":      {C: 0.05, K: 4},
			"laplacian":  {C: 0.1, K: 4, Laplacian: true},
			"approx":     {C: 0.05, K: 4, DropTol: 1 / math.Sqrt(float64(g.N()))},
			"nohuborder": {C: 0.05, K: 4, NoHubOrder: true},
		}
		for vname, opts := range variants {
			t.Run(name+"/"+vname, func(t *testing.T) {
				p, err := Preprocess(g, opts)
				if err != nil {
					t.Fatalf("Preprocess: %v", err)
				}
				base := seedsCoveringStructure(p)
				// Duplicates and reversed order: repeated seeds must solve
				// independently, and chunk grouping must not depend on the
				// caller's seed order.
				mixed := append(append([]int(nil), base...), base[0])
				for i := len(base) - 1; i >= 0; i-- {
					mixed = append(mixed, base[i])
				}
				// Seeds that all lie in one block make a single run as wide
				// as the chunk, which the forward stage solves in place; a
				// hubs-only batch skips the forward products entirely.
				largest := 0
				for bi, sz := range p.Blocks {
					if sz > p.Blocks[largest] {
						largest = bi
					}
				}
				var oneBlock, hubs []int
				for node := 0; node < p.N; node++ {
					if p.IsHub(node) {
						hubs = append(hubs, node)
					} else if p.BlockOf(node) == largest {
						oneBlock = append(oneBlock, node)
					}
				}
				for _, in := range []struct {
					name  string
					seeds []int
				}{{"mixed", mixed}, {"one-block", oneBlock}, {"hubs", hubs}} {
					if len(in.seeds) == 0 {
						continue
					}
					for _, workers := range []int{1, 3} {
						batch, err := p.QueryBatch(in.seeds, workers)
						if err != nil {
							t.Fatalf("%s: QueryBatch(workers=%d): %v", in.name, workers, err)
						}
						for i, seed := range in.seeds {
							want, err := p.Query(seed)
							if err != nil {
								t.Fatalf("Query(%d): %v", seed, err)
							}
							assertBitIdentical(t, batch[i], want,
								fmt.Sprintf("%s workers=%d batch[%d] (seed %d)", in.name, workers, i, seed))
						}
					}
				}
			})
		}
	}
}

// TestQueryBatchToReusesWorkspace drives QueryBatchToCtx on one worker
// (one pooled workspace per call) across several batches, including
// widths above and below the chunk size, and checks the contract errors.
func TestQueryBatchToReusesWorkspace(t *testing.T) {
	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 10, Size: 18, PIntra: 0.3, Hubs: 5, HubDeg: 20, Seed: 96})
	p, err := Preprocess(g, Options{K: 4})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	ctx := context.Background()
	for trial, seeds := range [][]int{
		{3},
		{0, 1, 2, 3, 4, 5},
		seedsCoveringStructure(p), // wider than one chunk
	} {
		dst := make([][]float64, len(seeds))
		for i := range dst {
			dst[i] = make([]float64, p.N)
		}
		if err := p.QueryBatchToCtx(ctx, dst, seeds, 1); err != nil {
			t.Fatalf("trial %d: QueryBatchToCtx: %v", trial, err)
		}
		for i, seed := range seeds {
			want, err := p.Query(seed)
			if err != nil {
				t.Fatalf("Query(%d): %v", seed, err)
			}
			assertBitIdentical(t, dst[i], want, fmt.Sprintf("trial %d seed %d", trial, seed))
		}
	}

	if err := p.QueryBatchToCtx(ctx, make([][]float64, 2), []int{0}, 1); err == nil {
		t.Fatal("expected dst/seeds length mismatch error")
	}
	if err := p.QueryBatchToCtx(ctx, [][]float64{make([]float64, 3)}, []int{0}, 1); err == nil {
		t.Fatal("expected short destination error")
	}
	if err := p.QueryBatchToCtx(ctx, [][]float64{make([]float64, p.N)}, []int{p.N}, 1); err == nil {
		t.Fatal("expected out-of-range seed error")
	}
}

// TestDynamicQueryBatchMatchesPerSeed covers both Dynamic batch regimes:
// the clean path (blocked solver, bit-identical to Query) and the dirty
// path (per-seed Woodbury fallback after updates).
func TestDynamicQueryBatchMatchesPerSeed(t *testing.T) {
	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 8, Size: 15, PIntra: 0.3, Hubs: 4, HubDeg: 15, Seed: 97})
	d, err := NewDynamic(g, Options{K: 3})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	seeds := []int{0, 7, 31, 64, 99, 7}
	check := func(stage string) {
		t.Helper()
		batch, err := d.QueryBatch(seeds, 2)
		if err != nil {
			t.Fatalf("%s: QueryBatch: %v", stage, err)
		}
		for i, s := range seeds {
			want, err := d.Query(s)
			if err != nil {
				t.Fatalf("%s: Query(%d): %v", stage, s, err)
			}
			assertBitIdentical(t, batch[i], want, fmt.Sprintf("%s seed %d", stage, s))
		}
	}
	check("clean")
	if err := d.AddEdge(3, 64, 2.5); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if d.Epoch() == 0 {
		t.Fatal("epoch did not advance on update")
	}
	check("dirty")
	if err := d.Rebuild(); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	check("rebuilt")
}

// TestEpochAdvances pins the transitions the cache keys on: updates and
// rebuild swaps each bump the epoch; reads do not.
func TestEpochAdvances(t *testing.T) {
	g := gen.ErdosRenyi(40, 160, 98)
	d, err := NewDynamic(g, Options{K: 2})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	if e := d.Epoch(); e != 0 {
		t.Fatalf("fresh epoch = %d, want 0", e)
	}
	if _, err := d.Query(1); err != nil {
		t.Fatalf("Query: %v", err)
	}
	if e := d.Epoch(); e != 0 {
		t.Fatalf("epoch after read = %d, want 0", e)
	}
	if err := d.AddEdge(0, 1, 1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	e1 := d.Epoch()
	if e1 == 0 {
		t.Fatal("epoch did not advance on AddEdge")
	}
	if err := d.Rebuild(); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if e2 := d.Epoch(); e2 <= e1 {
		t.Fatalf("epoch after rebuild = %d, want > %d", e2, e1)
	}
}

// TestTopKEdgeCases locks in the boundary contract: non-positive and
// oversized k, empty input, all-equal scores (deterministic ascending-id
// order), and NaN entries, which must rank below every real score instead
// of corrupting the heap.
func TestTopKEdgeCases(t *testing.T) {
	scores := []float64{0.2, 0.8, 0.5}
	if got := TopK(scores, 0); len(got) != 0 {
		t.Fatalf("TopK(k=0) = %v, want empty", got)
	}
	if got := TopK(scores, -3); len(got) != 0 {
		t.Fatalf("TopK(k=-3) = %v, want empty", got)
	}
	if got := TopK(nil, 5); len(got) != 0 {
		t.Fatalf("TopK(nil) = %v, want empty", got)
	}
	if got := TopK(scores, 10); !equalInts(got, []int{1, 2, 0}) {
		t.Fatalf("TopK(k>len) = %v, want [1 2 0]", got)
	}

	equal := []float64{0.25, 0.25, 0.25, 0.25, 0.25}
	if got := TopK(equal, 3); !equalInts(got, []int{0, 1, 2}) {
		t.Fatalf("all-equal TopK = %v, want [0 1 2]", got)
	}
	if got := TopK(equal, 5); !equalInts(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("all-equal full TopK = %v, want ascending ids", got)
	}

	nan := math.NaN()
	withNaN := []float64{0.3, nan, 0.5, nan, 0.1}
	if got := TopK(withNaN, 3); !equalInts(got, []int{2, 0, 4}) {
		t.Fatalf("NaN TopK(3) = %v, want [2 0 4]", got)
	}
	if got := TopK(withNaN, 5); !equalInts(got, []int{2, 0, 4, 1, 3}) {
		t.Fatalf("NaN TopK(5) = %v, want NaNs last by id", got)
	}
	allNaN := []float64{nan, nan, nan}
	if got := TopK(allNaN, 2); !equalInts(got, []int{0, 1}) {
		t.Fatalf("all-NaN TopK = %v, want [0 1]", got)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
