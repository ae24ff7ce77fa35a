package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"bear/internal/graph"
	"bear/internal/graph/gen"
)

// topKFixtures is the 11-graph suite the top-k contract is checked on:
// the shared core fixtures plus three shapes that stress the block bound
// differently — a path (long diameter), a bipartite graph (score
// oscillation), and a clique (maximal ties).
func topKFixtures(seed int64) map[string]*graph.Graph {
	m := testGraphs(seed)
	m["path"] = pathGraph(150)
	m["bipartite"] = gen.Bipartite(40, 60, 300, seed+7)
	m["clique"] = cliqueGraph(25)
	return m
}

func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1, 1)
	}
	return b.Build()
}

func cliqueGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				b.AddEdge(i, j, 1)
			}
		}
	}
	return b.Build()
}

// checkTopKAnswer asserts the one top-k contract: res holds exactly
// TopK(exact, k) — same nodes, same order — with each node's exact score.
func checkTopKAnswer(t *testing.T, res *TopKResult, exact []float64, k int, label string) {
	t.Helper()
	want := TopK(exact, k)
	if len(res.Nodes) != len(want) || len(res.Scores) != len(want) {
		t.Fatalf("%s: got %d nodes / %d scores, want %d (stats %+v)", label, len(res.Nodes), len(res.Scores), len(want), res.Stats)
	}
	for i, v := range res.Nodes {
		if v != want[i] || res.Scores[i] != exact[v] {
			t.Fatalf("%s: diverges at rank %d: node %d score %g, want node %d score %g (stats %+v)",
				label, i, v, res.Scores[i], want[i], exact[want[i]], res.Stats)
		}
	}
}

// TestHybridTopKMatchesExact is the central contract: on every fixture,
// every k and every index variant, QueryTopKCtx returns exactly TopK over
// the full solve, nodes, order and scores. The block bound is built from
// the stored factors, so approximate and Laplacian indexes must reach the
// block-pruned solve too.
func TestHybridTopKMatchesExact(t *testing.T) {
	fixtures := topKFixtures(42)
	if len(fixtures) != 11 {
		t.Fatalf("fixture suite has %d graphs, want 11", len(fixtures))
	}
	variants := []struct {
		name string
		opts Options
	}{
		{"exact", Options{}},
		{"approx", Options{DropTol: 1e-6}},
		{"laplacian", Options{Laplacian: true}},
	}
	for _, vt := range variants {
		t.Run(vt.name, func(t *testing.T) {
			blockPruned := 0
			for name, g := range fixtures {
				d, err := NewDynamic(g, vt.opts)
				if err != nil {
					t.Fatalf("%s: preprocess: %v", name, err)
				}
				n := g.N()
				for _, seed := range []int{0, n / 2, n - 1} {
					exact, err := d.Query(seed)
					if err != nil {
						t.Fatalf("%s seed %d: exact query: %v", name, seed, err)
					}
					for _, k := range []int{1, 10, 100} {
						res, err := d.QueryTopK(seed, k)
						if err != nil {
							t.Fatalf("%s seed %d k %d: %v", name, seed, k, err)
						}
						checkTopKAnswer(t, res, exact, k, fmt.Sprintf("%s seed %d k %d", name, seed, k))
						if res.Stats.Fallback == "" {
							blockPruned++
						}
					}
				}
			}
			if blockPruned == 0 {
				t.Fatal("no fixture/seed/k combination reached the block-pruned solve")
			}
			t.Logf("block-pruned %d of %d queries", blockPruned, len(fixtures)*3*3)
		})
	}
}

// TestHybridTopKNoThreshold pins the guard on the email-like star graph:
// 12 hubs and 250 one-node spoke blocks. At k=50 the hubs and the seed's
// block hold fewer than k scores, so no threshold exists before pruning
// and the full solve answers; at k=10 the block-pruned solve answers and
// skips blocks. Both answers are the full solve's, bit for bit.
func TestHybridTopKNoThreshold(t *testing.T) {
	g := gen.StarMail(gen.StarMailConfig{Core: 12, Periphery: 250, LeafDeg: 2, PCore: 0.4, Seed: 47})
	d, err := NewDynamic(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := d.Precomputed()
	if p.N2 != 12 || len(p.BlockOffsets)-1 != 250 {
		t.Fatalf("fixture has n2=%d and %d blocks, want 12 and 250", p.N2, len(p.BlockOffsets)-1)
	}
	for _, seed := range []int{3, 100, g.N() - 1} {
		exact, err := d.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.QueryTopK(seed, 50)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Fallback != TopKFallbackNoThreshold {
			t.Fatalf("seed %d k=50: stats %+v, want fallback %q", seed, res.Stats, TopKFallbackNoThreshold)
		}
		checkTopKAnswer(t, res, exact, 50, fmt.Sprintf("seed %d k=50", seed))

		res, err = d.QueryTopK(seed, 10)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Fallback != "" || res.Stats.BlocksSkipped == 0 {
			t.Fatalf("seed %d k=10: stats %+v, want the block-pruned solve skipping blocks", seed, res.Stats)
		}
		checkTopKAnswer(t, res, exact, 10, fmt.Sprintf("seed %d k=10", seed))
	}
}

// TestHybridTopKBlockPruning checks the block-pruned solve on a
// block-rich graph: it must skip a nontrivial number of spoke blocks while
// still returning the exact nodes, order, and bit-identical scores.
func TestHybridTopKBlockPruning(t *testing.T) {
	g := gen.CavemanHubs(gen.CavemanHubsConfig{
		Communities: 40, Size: 30, PIntra: 0.4, Hubs: 4, HubDeg: 25, Seed: 5,
	})
	d, err := NewDynamic(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sawSkip := false
	for _, seed := range []int{10, 400, 900} {
		exact, err := d.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.QueryTopK(seed, 10)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Fallback != "" {
			t.Fatalf("seed %d: unexpected fallback %q", seed, res.Stats.Fallback)
		}
		if res.Stats.BlocksSolved == 0 {
			t.Fatalf("seed %d: block path reports no solved blocks: %+v", seed, res.Stats)
		}
		if res.Stats.BlocksSkipped > 0 {
			sawSkip = true
		}
		checkTopKAnswer(t, res, exact, 10, fmt.Sprintf("seed %d", seed))
	}
	if !sawSkip {
		t.Fatal("no seed skipped any block on a 40-community graph; the bound never pruned")
	}
}

func TestHybridTopKFallbackReasons(t *testing.T) {
	g := gen.ErdosRenyi(80, 400, 9)
	check := func(t *testing.T, d *Dynamic, wantReason string, k int) {
		t.Helper()
		exact, err := d.Query(5)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.QueryTopK(5, k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Fallback != wantReason {
			t.Fatalf("stats %+v, want fallback %q", res.Stats, wantReason)
		}
		checkTopKAnswer(t, res, exact, k, "fallback "+wantReason)
	}
	t.Run("pending", func(t *testing.T) {
		d, err := NewDynamic(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.AddEdge(0, 79, 2.5); err != nil {
			t.Fatal(err)
		}
		check(t, d, TopKFallbackPending, 10)
	})
	t.Run("k-covers-graph", func(t *testing.T) {
		d, err := NewDynamic(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		check(t, d, TopKFallbackNoThreshold, g.N()+5)
	})
	t.Run("bad-args", func(t *testing.T) {
		d, err := NewDynamic(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.QueryTopK(-1, 5); err == nil {
			t.Error("negative seed accepted")
		}
		if _, err := d.QueryTopK(g.N(), 5); err == nil {
			t.Error("out-of-range seed accepted")
		}
		if _, err := d.QueryTopK(0, 0); err == nil {
			t.Error("k=0 accepted")
		}
	})
}

// TestHybridTopKConcurrent interleaves top-k queries with edge updates, so
// the race detector sees queries move between the block-pruned, isolated
// and pending-updates paths while the index state changes under them. The
// rmat fixture supplies the isolated seeds.
func TestHybridTopKConcurrent(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ba", gen.BarabasiAlbert(200, 3, 31)},
		{"rmat", testGraphs(1)["rmat"]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.g.N()
			d, err := NewDynamic(tc.g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < 25; i++ {
						res, err := d.QueryTopK(rng.Intn(n), 5)
						if err != nil {
							t.Errorf("worker %d: %v", w, err)
							return
						}
						if len(res.Nodes) != 5 {
							t.Errorf("worker %d: got %d nodes", w, len(res.Nodes))
							return
						}
					}
				}(w)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					if err := d.AddEdge(i, (i*7+1)%n, float64(i+1)); err != nil {
						t.Errorf("update: %v", err)
						return
					}
				}
			}()
			wg.Wait()
		})
	}
}

// brute-force reference ranking sharing TopK's comparator, for parity
// checks on NaN scores and ties.
func bruteTopK(scores []float64, k int, skip func(int) bool) []int {
	var idx []int
	for i := range scores {
		if skip != nil && skip(i) {
			continue
		}
		idx = append(idx, i)
	}
	sort.SliceStable(idx, func(x, y int) bool {
		a, b := idx[x], idx[y]
		sa, sb := scores[a], scores[b]
		if math.IsNaN(sa) {
			return math.IsNaN(sb) && a < b
		}
		if math.IsNaN(sb) {
			return true
		}
		return sa > sb || (sa == sb && a < b)
	})
	if k > len(idx) {
		k = len(idx)
	}
	if k < 0 {
		k = 0
	}
	return idx[:k]
}

func TestTopKExcludingParity(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		scores := make([]float64, n)
		for i := range scores {
			switch rng.Intn(5) {
			case 0:
				scores[i] = math.NaN()
			case 1:
				scores[i] = float64(rng.Intn(3)) // force ties
			default:
				scores[i] = rng.Float64()
			}
		}
		var skip func(int) bool
		if trial%2 == 1 {
			skip = func(i int) bool { return i%3 == 0 }
		}
		for _, k := range []int{0, 1, 3, n, n + 10} {
			got := TopKExcluding(scores, k, skip)
			want := bruteTopK(scores, k, skip)
			if len(got) != len(want) {
				t.Fatalf("trial %d k %d: len %d, want %d", trial, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d k %d: order diverges at %d: got %v want %v", trial, k, i, got, want)
				}
			}
		}
		// nil skip must be bit-identical to TopK.
		a, b := TopKExcluding(scores, 7, nil), TopK(scores, 7)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: TopKExcluding(nil) diverges from TopK: %v vs %v", trial, a, b)
			}
		}
	}
}

func TestTopKCandidatesExcludesExistingEdges(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(1, 3, 1)
	b.AddEdge(2, 4, 1)
	g := b.Build()
	scores := []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.4}
	got := TopKCandidates(g, scores, 0, 10)
	// Seed 0 and its out-neighbors 1, 2 are excluded; the rest rank by score.
	want := []int{3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// A node with no out-edges excludes only itself.
	got = TopKCandidates(g, scores, 5, 2)
	want = []int{0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("isolated seed: got %v, want %v", got, want)
		}
	}
}
