package core

import (
	"math"
	"testing"

	"bear/internal/graph/gen"
)

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

func l2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestApproxShrinksMatrices(t *testing.T) {
	g := gen.BarabasiAlbert(800, 3, 20)
	exact, err := Preprocess(g, Options{K: 2})
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	n := float64(g.N())
	approx, err := Preprocess(g, Options{K: 2, DropTol: 1 / math.Sqrt(n)})
	if err != nil {
		t.Fatalf("approx: %v", err)
	}
	if approx.NNZ() >= exact.NNZ() {
		t.Fatalf("approx nnz %d not below exact nnz %d", approx.NNZ(), exact.NNZ())
	}
	if approx.Bytes() >= exact.Bytes() {
		t.Fatalf("approx bytes %d not below exact bytes %d", approx.Bytes(), exact.Bytes())
	}
}

func TestApproxAccuracyDegradesGracefully(t *testing.T) {
	// Fig 6's shape: as ξ rises, nnz falls monotonically while cosine
	// similarity stays high for small ξ.
	g := gen.RMAT(gen.NewRMATPul(512, 3000, 0.7, 21))
	exact, err := Preprocess(g, Options{K: 2})
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	ref, err := exact.Query(10)
	if err != nil {
		t.Fatalf("exact query: %v", err)
	}
	n := float64(g.N())
	xis := []float64{1 / (n * n), 1 / n, 1 / math.Sqrt(n), 1 / math.Pow(n, 0.25)}
	prevNNZ := exact.NNZ()
	for _, xi := range xis {
		p, err := Preprocess(g, Options{K: 2, DropTol: xi})
		if err != nil {
			t.Fatalf("ξ=%g: %v", xi, err)
		}
		if p.NNZ() > prevNNZ {
			t.Fatalf("nnz not monotone at ξ=%g: %d > %d", xi, p.NNZ(), prevNNZ)
		}
		prevNNZ = p.NNZ()
		r, err := p.Query(10)
		if err != nil {
			t.Fatalf("ξ=%g query: %v", xi, err)
		}
		cos := cosine(r, ref)
		if xi <= 1/n && cos < 0.999 {
			t.Fatalf("ξ=%g: cosine %g below 0.999 (paper keeps >0.999 at n⁻¹)", xi, cos)
		}
		if cos < 0.85 {
			t.Fatalf("ξ=%g: cosine %g collapsed", xi, cos)
		}
	}
}

func TestApproxZeroTolIsExact(t *testing.T) {
	g := gen.ErdosRenyi(150, 600, 22)
	a, err := Preprocess(g, Options{K: 2, DropTol: 0})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	b, err := Preprocess(g, Options{K: 2})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	ra, _ := a.Query(0)
	rb, _ := b.Query(0)
	if d := maxAbsDiff(ra, rb); d != 0 {
		t.Fatalf("DropTol 0 differs from default by %g", d)
	}
}

func TestOptionsValidation(t *testing.T) {
	g := gen.ErdosRenyi(10, 30, 23)
	if _, err := Preprocess(g, Options{C: 1.5}); err == nil {
		t.Fatal("expected error for c > 1")
	}
	if _, err := Preprocess(g, Options{C: -0.1}); err == nil {
		t.Fatal("expected error for negative c")
	}
	if _, err := Preprocess(g, Options{DropTol: -1}); err == nil {
		t.Fatal("expected error for negative drop tolerance")
	}
}

func TestStatsPopulated(t *testing.T) {
	g := gen.BarabasiAlbert(300, 2, 24)
	p, err := Preprocess(g, Options{K: 3})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	st := p.Stats
	if st.N != g.N() || st.M != g.M() {
		t.Fatal("stats sizes wrong")
	}
	if st.N1+st.N2 != st.N {
		t.Fatal("n1 + n2 != n")
	}
	if st.NumBlocks != len(p.Blocks) {
		t.Fatal("block count mismatch")
	}
	var sq int64
	for _, b := range p.Blocks {
		sq += int64(b) * int64(b)
	}
	if st.SumSqBlocks != sq {
		t.Fatal("SumSqBlocks mismatch")
	}
	if st.NNZH12H21 != p.H12.NNZ()+p.H21.NNZ() {
		t.Fatal("NNZH12H21 mismatch")
	}
	if st.TimeTotal <= 0 {
		t.Fatal("TimeTotal not measured")
	}
}

// TestDenseVsSparseSchurPathsAgree factors the same Schur complement on
// both paths of factorSchur — dense partial-pivoted LU below the cutoff,
// sparse no-pivot LU above it — and checks that queries agree.
func TestDenseVsSparseSchurPathsAgree(t *testing.T) {
	g := gen.RMAT(gen.NewRMATPul(300, 1800, 0.6, 25))
	d, err := NewDynamic(g, Options{K: 3})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	dense := d.Precomputed()
	if dense.N2 <= 1 {
		t.Skip("needs more than one hub to exercise the Schur factorization")
	}
	s := schurComplement(dense.incr.h22, dense.H21, dense.incr.t2)
	l2inv, _, _, err := factorSchur(s, 1<<20)
	if err != nil {
		t.Fatalf("dense path: %v", err)
	}
	if !csrBitsEqual(l2inv, dense.L2Inv) {
		t.Fatal("the cached Schur complement does not reproduce the preprocessed factors")
	}
	sparsePath := &Precomputed{
		N: dense.N, N1: dense.N1, N2: dense.N2, C: dense.C,
		Blocks: dense.Blocks, Perm: dense.Perm, InvPerm: dense.InvPerm,
		L1Inv: dense.L1Inv, U1Inv: dense.U1Inv, H12: dense.H12, H21: dense.H21,
		OutDegree: dense.OutDegree,
	}
	sparsePath.L2Inv, sparsePath.U2Inv, sparsePath.SPerm, err = factorSchur(s, 1)
	if err != nil {
		t.Fatalf("sparse path: %v", err)
	}
	if sparsePath.SPerm != nil {
		t.Fatal("sparse path pivoted")
	}
	sparsePath.finish()
	rd, _ := dense.Query(17)
	rs, _ := sparsePath.Query(17)
	if d := maxAbsDiff(rd, rs); d > 1e-9 {
		t.Fatalf("Schur paths disagree by %g", d)
	}
}

func TestEmptyGraphRejected(t *testing.T) {
	g := gen.ErdosRenyi(8, 0, 26) // edgeless is fine...
	if _, err := Preprocess(g, Options{K: 1}); err != nil {
		t.Fatalf("edgeless graph should preprocess: %v", err)
	}
}
