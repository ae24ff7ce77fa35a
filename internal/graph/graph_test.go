package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bear/internal/sparse"
)

func lineGraph(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddUndirected(i, i+1, 1)
	}
	return b.Build()
}

func randomGraph(rng *rand.Rand, n, m int) *Graph {
	b := NewBuilder(n)
	for e := 0; e < m; e++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n), 1+rng.Float64())
	}
	return b.Build()
}

func TestBuilderMergesParallelEdges(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 2)
	b.AddEdge(0, 1, 3)
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 merged edge", g.M())
	}
	dst, w := g.Out(0)
	if dst[0] != 1 || w[0] != 5 {
		t.Fatalf("merged edge = (%d, %g), want (1, 5)", dst[0], w[0])
	}
}

func TestBuilderPanics(t *testing.T) {
	b := NewBuilder(2)
	for _, f := range []func(){
		func() { b.AddEdge(0, 2, 1) },
		func() { b.AddEdge(-1, 0, 1) },
		func() { b.AddEdge(0, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestDegrees(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(3, 0, 1)
	g := b.Build()
	if g.OutDegree(0) != 2 || g.OutDegree(3) != 1 || g.OutDegree(1) != 0 {
		t.Fatal("out-degrees wrong")
	}
	in := g.InDegrees()
	if in[0] != 1 || in[1] != 1 || in[2] != 1 || in[3] != 0 {
		t.Fatalf("in-degrees %v wrong", in)
	}
	total := g.TotalDegrees()
	if total[0] != 3 {
		t.Fatalf("total degree of 0 = %d, want 3", total[0])
	}
}

func TestHasEdge(t *testing.T) {
	g := lineGraph(4)
	if !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
}

func TestNormalizedRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	g := randomGraph(rng, 50, 300)
	a := g.Normalized()
	for u := 0; u < g.N(); u++ {
		_, vals := a.Row(u)
		var s float64
		for _, v := range vals {
			s += v
		}
		if len(vals) == 0 {
			continue // dangling row stays zero
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d sums to %g", u, s)
		}
	}
}

func TestNormalizedDanglingRowsStayZero(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 1)
	g := b.Build()
	a := g.Normalized()
	_, vals := a.Row(2)
	if len(vals) != 0 {
		t.Fatal("dangling row has entries")
	}
}

func TestHMatrixDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	g := randomGraph(rng, 25, 120)
	const c = 0.15
	h := g.HMatrixCSC(c, false)
	at := g.Normalized().Transpose()
	want := sparse.Add(sparse.Identity(g.N()), at.Scale(-(1 - c)))
	hd, wd := h.Dense(), want.Dense()
	for i := range hd {
		if math.Abs(hd[i]-wd[i]) > 1e-14 {
			t.Fatalf("H mismatch at flat index %d", i)
		}
	}
}

func TestHMatrixColumnDiagonallyDominant(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	g := randomGraph(rng, 40, 200)
	h := g.HMatrixCSC(0.05, false)
	for j := 0; j < g.N(); j++ {
		rows, vals := h.Col(j)
		var diag, off float64
		for k, i := range rows {
			if i == j {
				diag = math.Abs(vals[k])
			} else {
				off += math.Abs(vals[k])
			}
		}
		if diag <= off {
			t.Fatalf("column %d not strictly dominant: diag %g vs off %g", j, diag, off)
		}
	}
}

func TestHMatrixPanicsOnBadC(t *testing.T) {
	g := lineGraph(3)
	for _, c := range []float64{0, 1, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for c=%g", c)
				}
			}()
			g.HMatrixCSC(c, false)
		}()
	}
}

func TestNormalizedLaplacianSymmetric(t *testing.T) {
	// For an undirected graph the normalized Laplacian matrix is symmetric.
	rng := rand.New(rand.NewSource(93))
	b := NewBuilder(30)
	for e := 0; e < 100; e++ {
		u, v := rng.Intn(30), rng.Intn(30)
		if u != v {
			b.AddUndirected(u, v, 1)
		}
	}
	g := b.Build()
	l := g.NormalizedLaplacian()
	lt := l.Transpose()
	ld, ltd := l.Dense(), lt.Dense()
	for i := range ld {
		if math.Abs(ld[i]-ltd[i]) > 1e-12 {
			t.Fatal("normalized Laplacian not symmetric on undirected graph")
		}
	}
}

func TestPermuteRelabels(t *testing.T) {
	g := lineGraph(4)
	perm := []int{3, 2, 1, 0}
	pg := g.Permute(perm)
	if !pg.HasEdge(3, 2) || !pg.HasEdge(2, 1) || pg.HasEdge(0, 3) {
		t.Fatal("Permute relabeled edges incorrectly")
	}
	if pg.N() != g.N() || pg.M() != g.M() {
		t.Fatal("Permute changed size")
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(7)
	b.AddUndirected(0, 1, 1)
	b.AddUndirected(1, 2, 1)
	b.AddUndirected(3, 4, 1)
	// 5, 6 isolated
	g := b.Build()
	labels, count := g.Components()
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("component {0,1,2} split")
	}
	if labels[3] != labels[4] {
		t.Fatal("component {3,4} split")
	}
	if labels[5] == labels[6] || labels[5] == labels[0] {
		t.Fatal("isolated nodes mislabeled")
	}
	sizes := ComponentSizes(labels, count)
	want := map[int]int{3: 1, 2: 1, 1: 2}
	got := map[int]int{}
	for _, s := range sizes {
		got[s]++
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("size histogram %v, want %v", got, want)
		}
	}
}

func TestComponentsDirectedTreatedUndirected(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 1) // only a directed edge
	b.AddEdge(2, 1, 1)
	g := b.Build()
	_, count := g.Components()
	if count != 1 {
		t.Fatalf("weak components = %d, want 1", count)
	}
}

func TestUndirectedNeighbors(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 0, 1)
	b.AddEdge(0, 0, 1) // self loop excluded
	g := b.Build()
	adj := g.UndirectedNeighbors()
	if len(adj[0]) != 2 {
		t.Fatalf("node 0 neighbors %v, want {1,2}", adj[0])
	}
	if len(adj[1]) != 1 || adj[1][0] != 0 {
		t.Fatalf("node 1 neighbors %v", adj[1])
	}
}

// Property: the iterative RWR invariant — for any graph, H's columns sum to
// at least c (mass conservation of the substochastic transition).
func TestQuickHColumnSums(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	f := func(seed int64) bool {
		lr := rand.New(rand.NewSource(seed))
		n := 2 + lr.Intn(25)
		g := randomGraph(rng, n, 4*n)
		const c = 0.2
		h := g.HMatrixCSC(c, false)
		for j := 0; j < n; j++ {
			_, vals := h.Col(j)
			var s float64
			for _, v := range vals {
				s += v
			}
			// Column sum is 1 − (1−c)·(out-mass of j) ≥ c.
			if s < c-1e-12 || s > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
