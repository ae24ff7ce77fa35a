package rwr

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bear/internal/graph"
	"bear/internal/graph/gen"
)

// exactRef computes the ground-truth RWR vector for a single seed.
func exactRef(t *testing.T, g *graph.Graph, c float64, seed int) []float64 {
	t.Helper()
	q := make([]float64, g.N())
	q[seed] = 1
	r, err := Exact(g, c, q)
	if err != nil {
		t.Fatalf("exact solve: %v", err)
	}
	return r
}

func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
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

func testGraph() *graph.Graph {
	return gen.RMAT(gen.NewRMATPul(300, 1800, 0.7, 100))
}

func querySeed(t *testing.T, s Solver, n, seed int) []float64 {
	t.Helper()
	r, err := SeedQuery(s, n, seed)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	return r
}

func TestIterativeMatchesExact(t *testing.T) {
	g := testGraph()
	s, err := Iterative{}.Preprocess(g, Options{Eps: 1e-12})
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	for _, seed := range []int{0, 7, 150, 299} {
		got := querySeed(t, s, g.N(), seed)
		want := exactRef(t, g, 0.05, seed)
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Fatalf("seed %d: diff %g", seed, d)
		}
	}
}

func TestIterativeDivergenceGuard(t *testing.T) {
	g := testGraph()
	s, err := Iterative{}.Preprocess(g, Options{Eps: 1e-12, MaxIters: 2})
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	if _, err := SeedQuery(s, g.N(), 0); err == nil {
		t.Fatal("expected non-convergence error with MaxIters=2")
	}
}

func TestInversionMatchesExact(t *testing.T) {
	g := gen.ErdosRenyi(120, 600, 101)
	s, err := Inversion{}.Preprocess(g, Options{})
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	for _, seed := range []int{0, 60, 119} {
		got := querySeed(t, s, g.N(), seed)
		want := exactRef(t, g, 0.05, seed)
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Fatalf("seed %d: diff %g", seed, d)
		}
	}
}

func TestInversionRespectsBudget(t *testing.T) {
	g := gen.ErdosRenyi(200, 800, 102)
	_, err := Inversion{}.Preprocess(g, Options{MemBudget: 1000})
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
}

func TestLUDecompMatchesExact(t *testing.T) {
	g := testGraph()
	s, err := LUDecomp{}.Preprocess(g, Options{})
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	for _, seed := range []int{3, 100, 250} {
		got := querySeed(t, s, g.N(), seed)
		want := exactRef(t, g, 0.05, seed)
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Fatalf("seed %d: diff %g", seed, d)
		}
	}
}

func TestLUDecompRespectsBudget(t *testing.T) {
	g := gen.ErdosRenyi(400, 4000, 103) // dense-ish inverse factors
	_, err := LUDecomp{}.Preprocess(g, Options{MemBudget: 4000})
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
}

func TestQRDecompMatchesExact(t *testing.T) {
	g := gen.ErdosRenyi(100, 500, 104)
	s, err := QRDecomp{}.Preprocess(g, Options{})
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	for _, seed := range []int{0, 50, 99} {
		got := querySeed(t, s, g.N(), seed)
		want := exactRef(t, g, 0.05, seed)
		if d := maxAbsDiff(got, want); d > 1e-8 {
			t.Fatalf("seed %d: diff %g", seed, d)
		}
	}
}

func TestQRDecompRespectsBudget(t *testing.T) {
	g := gen.ErdosRenyi(200, 800, 105)
	_, err := QRDecomp{}.Preprocess(g, Options{MemBudget: 1000})
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
}

func TestRPPRApproximatesExact(t *testing.T) {
	g := testGraph()
	s, err := RPPR{}.Preprocess(g, Options{EpsB: 1e-6, Eps: 1e-10})
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	got := querySeed(t, s, g.N(), 10)
	want := exactRef(t, g, 0.05, 10)
	if cos := cosine(got, want); cos < 0.99 {
		t.Fatalf("RPPR cosine %g too low at tight ε_b", cos)
	}
}

func TestRPPRThresholdTradesAccuracy(t *testing.T) {
	g := testGraph()
	want := exactRef(t, g, 0.05, 10)
	cosAt := func(epsb float64) float64 {
		s, err := RPPR{}.Preprocess(g, Options{EpsB: epsb, Eps: 1e-10})
		if err != nil {
			t.Fatalf("preprocess: %v", err)
		}
		return cosine(querySeed(t, s, g.N(), 10), want)
	}
	tight, loose := cosAt(1e-6), cosAt(0.5)
	if tight < loose {
		t.Fatalf("tight ε_b cosine %g below loose %g", tight, loose)
	}
}

func TestBRPPRApproximatesExact(t *testing.T) {
	g := testGraph()
	s, err := BRPPR{}.Preprocess(g, Options{EpsB: 1e-5, Eps: 1e-10})
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	got := querySeed(t, s, g.N(), 10)
	want := exactRef(t, g, 0.05, 10)
	if cos := cosine(got, want); cos < 0.99 {
		t.Fatalf("BRPPR cosine %g too low at tight ε_b", cos)
	}
}

func TestBLinApproximates(t *testing.T) {
	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 15, Size: 20, PIntra: 0.3, Hubs: 5, HubDeg: 20, Seed: 106})
	s, err := BLin{}.Preprocess(g, Options{Partitions: 15, Rank: 40})
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	want := exactRef(t, g, 0.05, 8)
	got := querySeed(t, s, g.N(), 8)
	if cos := cosine(got, want); cos < 0.80 {
		t.Fatalf("B_LIN cosine %g too low", cos)
	}
}

func TestBLinExactWhenNoCrossEdges(t *testing.T) {
	// With one partition per component and no cross-partition edges, B_LIN
	// is exact: M captures everything and A₂ is empty.
	b := graph.NewBuilder(30)
	for isle := 0; isle < 3; isle++ {
		base := isle * 10
		for i := 0; i < 9; i++ {
			b.AddUndirected(base+i, base+i+1, 1)
		}
	}
	g := b.Build()
	s, err := BLin{}.Preprocess(g, Options{Partitions: 3, Rank: 3})
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	want := exactRef(t, g, 0.05, 4)
	got := querySeed(t, s, g.N(), 4)
	if d := maxAbsDiff(got, want); d > 1e-9 {
		t.Fatalf("B_LIN not exact without cross edges: diff %g", d)
	}
}

func TestNBLinApproximates(t *testing.T) {
	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 15, Size: 20, PIntra: 0.3, Hubs: 5, HubDeg: 20, Seed: 107})
	s, err := NBLin{}.Preprocess(g, Options{Rank: 60})
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	want := exactRef(t, g, 0.05, 8)
	got := querySeed(t, s, g.N(), 8)
	if cos := cosine(got, want); cos < 0.5 {
		t.Fatalf("NB_LIN cosine %g collapsed", cos)
	}
}

func TestBLinRespectsBudget(t *testing.T) {
	g := gen.ErdosRenyi(300, 1200, 108)
	_, err := BLin{}.Preprocess(g, Options{Partitions: 2, MemBudget: 1000})
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
}

func TestPartition(t *testing.T) {
	g := gen.BarabasiAlbert(200, 2, 109)
	for _, k := range []int{1, 5, 50} {
		part := Partition(g, k)
		counts := map[int]int{}
		for _, p := range part {
			if p < 0 || p >= k {
				t.Fatalf("partition id %d out of range for k=%d", p, k)
			}
			counts[p]++
		}
		if len(counts) != k {
			t.Fatalf("k=%d: only %d parts used", k, len(counts))
		}
	}
}

func TestPartitionMoreThanNodes(t *testing.T) {
	g := gen.ErdosRenyi(5, 10, 110)
	part := Partition(g, 100)
	for _, p := range part {
		if p < 0 || p >= 5 {
			t.Fatalf("partition id %d out of clamped range", p)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	g := gen.ErdosRenyi(10, 30, 111)
	for _, m := range []Method{Iterative{}, RPPR{}, BRPPR{}, Inversion{}, LUDecomp{}, QRDecomp{}, BLin{}, NBLin{}} {
		if _, err := m.Preprocess(g, Options{C: 2}); err == nil {
			t.Errorf("%s accepted c=2", m.Name())
		}
	}
}

// Method is re-declared here to avoid importing the bench package (which
// would create an import cycle through methods.go).
type Method interface {
	Name() string
	Preprocess(g *graph.Graph, opts Options) (Solver, error)
}

func TestQueryLengthChecks(t *testing.T) {
	g := gen.ErdosRenyi(20, 80, 112)
	for _, m := range []Method{Iterative{}, RPPR{}, BRPPR{}, Inversion{}, LUDecomp{}, QRDecomp{}, BLin{}, NBLin{}} {
		s, err := m.Preprocess(g, Options{})
		if err != nil {
			t.Fatalf("%s preprocess: %v", m.Name(), err)
		}
		if _, err := s.Query(make([]float64, 19)); err == nil {
			t.Errorf("%s accepted wrong-length query", m.Name())
		}
	}
}

func TestSolverAccounting(t *testing.T) {
	g := testGraph()
	for _, m := range []Method{Iterative{}, Inversion{}, LUDecomp{}, BLin{}, NBLin{}} {
		s, err := m.Preprocess(g, Options{})
		if err != nil {
			t.Fatalf("%s preprocess: %v", m.Name(), err)
		}
		if s.NNZ() <= 0 || s.Bytes() <= 0 {
			t.Errorf("%s reports nnz=%d bytes=%d", m.Name(), s.NNZ(), s.Bytes())
		}
	}
}

// Property: every exact method agrees with the oracle on random graphs.
func TestQuickExactMethodsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(60)
		b := graph.NewBuilder(n)
		for e := 0; e < 4*n; e++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n), 1)
		}
		g := b.Build()
		s := rng.Intn(n)
		want := make([]float64, n)
		want[s] = 1
		want, err := Exact(g, 0.05, want)
		if err != nil {
			return false
		}
		for _, m := range []Method{Inversion{}, LUDecomp{}} {
			sol, err := m.Preprocess(g, Options{})
			if err != nil {
				return false
			}
			got, err := SeedQuery(sol, n, s)
			if err != nil {
				return false
			}
			if maxAbsDiff(got, want) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLUNaturalOrderStillExact(t *testing.T) {
	g := gen.ErdosRenyi(120, 500, 113)
	s, err := LUDecomp{NaturalOrder: true}.Preprocess(g, Options{})
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	got := querySeed(t, s, g.N(), 30)
	want := exactRef(t, g, 0.05, 30)
	if d := maxAbsDiff(got, want); d > 1e-9 {
		t.Fatalf("natural-order LU wrong: diff %g", d)
	}
	if (LUDecomp{NaturalOrder: true}).Name() != "lu-natural" {
		t.Fatal("ablation name wrong")
	}
}

func TestDegreeOrderingReducesFill(t *testing.T) {
	// Observation 1 of the paper: degree-ascending reordering makes the
	// inverted LU factors sparser than natural order.
	g := gen.BarabasiAlbert(600, 2, 114)
	ordered, err := LUDecomp{}.Preprocess(g, Options{})
	if err != nil {
		t.Fatalf("ordered: %v", err)
	}
	natural, err := LUDecomp{NaturalOrder: true}.Preprocess(g, Options{})
	if err != nil {
		t.Fatalf("natural: %v", err)
	}
	if ordered.NNZ() >= natural.NNZ() {
		t.Fatalf("degree ordering did not reduce fill: %d vs %d",
			ordered.NNZ(), natural.NNZ())
	}
}
