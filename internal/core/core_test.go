package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"bear/internal/graph"
	"bear/internal/graph/gen"
	"bear/internal/sparse"
)

// directSolve computes the exact RWR vector by sparse LU of H, the oracle
// BEAR-Exact must match (Theorem 1).
func directSolve(t *testing.T, g *graph.Graph, c float64, q []float64) []float64 {
	t.Helper()
	f, err := sparse.LU(g.HMatrixCSC(c, false))
	if err != nil {
		t.Fatalf("direct LU: %v", err)
	}
	r := make([]float64, len(q))
	for i, v := range q {
		r[i] = c * v
	}
	if err := f.Solve(r); err != nil {
		t.Fatalf("direct solve: %v", err)
	}
	return r
}

func maxAbsDiff(a, b []float64) float64 {
	var mx float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > mx {
			mx = d
		}
	}
	return mx
}

// testGraphs is the shared eight-graph fixture suite (gen.Fixtures).
func testGraphs(seed int64) map[string]*graph.Graph {
	return gen.Fixtures(seed)
}

func TestBearExactMatchesDirectSolve(t *testing.T) {
	for name, g := range testGraphs(1) {
		t.Run(name, func(t *testing.T) {
			p, err := Preprocess(g, Options{C: 0.05, K: 4})
			if err != nil {
				t.Fatalf("Preprocess: %v", err)
			}
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 5; trial++ {
				seed := rng.Intn(g.N())
				got, err := p.Query(seed)
				if err != nil {
					t.Fatalf("Query(%d): %v", seed, err)
				}
				q := make([]float64, g.N())
				q[seed] = 1
				want := directSolve(t, g, 0.05, q)
				if d := maxAbsDiff(got, want); d > 1e-9 {
					t.Fatalf("seed %d: max abs diff %g vs direct solve", seed, d)
				}
			}
		})
	}
}

func TestBearSaveLoadRoundtrip(t *testing.T) {
	g := gen.RMAT(gen.NewRMATPul(128, 700, 0.7, 3))
	p, err := Preprocess(g, Options{K: 3})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	p2, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	r1, err := p.Query(5)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	r2, err := p2.Query(5)
	if err != nil {
		t.Fatalf("Query after load: %v", err)
	}
	if d := maxAbsDiff(r1, r2); d != 0 {
		t.Fatalf("roundtrip changed results by %g", d)
	}
}

func TestIsHubAndBlockOf(t *testing.T) {
	g := gen.StarMail(gen.StarMailConfig{Core: 6, Periphery: 200, LeafDeg: 1, PCore: 1, Seed: 60})
	p, err := Preprocess(g, Options{K: 2})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	hubs := 0
	blockCounts := make(map[int]int)
	for u := 0; u < g.N(); u++ {
		if p.IsHub(u) {
			hubs++
			if p.BlockOf(u) != -1 {
				t.Fatalf("hub %d reports block %d", u, p.BlockOf(u))
			}
			continue
		}
		bi := p.BlockOf(u)
		if bi < 0 || bi >= len(p.Blocks) {
			t.Fatalf("spoke %d reports block %d of %d", u, bi, len(p.Blocks))
		}
		blockCounts[bi]++
	}
	if hubs != p.N2 {
		t.Fatalf("IsHub count %d, want n2=%d", hubs, p.N2)
	}
	for bi, sz := range p.Blocks {
		if blockCounts[bi] != sz {
			t.Fatalf("block %d holds %d nodes, declared %d", bi, blockCounts[bi], sz)
		}
	}
	// Nodes in the same block must be in the same component after removing
	// hubs; verify via the block-disconnection property: no edge between
	// different blocks.
	for u := 0; u < g.N(); u++ {
		if p.IsHub(u) {
			continue
		}
		dst, _ := g.Out(u)
		for _, v := range dst {
			if !p.IsHub(v) && p.BlockOf(u) != p.BlockOf(v) {
				t.Fatalf("edge %d-%d crosses blocks %d and %d", u, v, p.BlockOf(u), p.BlockOf(v))
			}
		}
	}
}
