package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
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

// wholeLUInverse factors h11 as one matrix and inverts both factors: the
// reference the block-factor stage must reproduce bit for bit.
func wholeLUInverse(t *testing.T, h11 *sparse.CSC) (l1inv, u1inv *sparse.CSR) {
	t.Helper()
	f, err := sparse.LU(h11)
	if err != nil {
		t.Fatalf("whole-matrix LU: %v", err)
	}
	li, err := sparse.InverseLower(f.L, true)
	if err != nil {
		t.Fatalf("whole-matrix InverseLower: %v", err)
	}
	ui, err := sparse.InverseUpper(f.U)
	if err != nil {
		t.Fatalf("whole-matrix InverseUpper: %v", err)
	}
	return li.ToCSR(), ui.ToCSR()
}

// TestFactorBlocksMatchesWholeMatrixLU: the block-factor stage run over
// every diagonal block equals whole-matrix sparse.LU plus the triangular
// inverses bit for bit (Lemma 1), on multi-block and one-block H₁₁ alike.
// The preprocessed fixtures cover the blocks the orderings produce (the
// singleton's H₁₁ is one block); the hand-built matrices stack the system
// matrices of small graphs into blocks of chosen sizes, or take one whole.
func TestFactorBlocksMatchesWholeMatrixLU(t *testing.T) {
	ctx := context.Background()
	check := func(name string, h *sparse.CSC, off []int, n1 int) {
		t.Helper()
		wantL, wantU := wholeLUInverse(t, h.Submatrix(0, n1, 0, n1))
		gotL, gotU, err := factorBlocks(ctx, h, off)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !csrBitsEqual(gotL, wantL) || !csrBitsEqual(gotU, wantU) {
			t.Fatalf("%s: block factors differ from whole-matrix LU", name)
		}
	}
	shapes := map[int]int{}
	for name, g := range testGraphs(3) {
		p, err := Preprocess(g, Options{K: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hp := g.HMatrixCSC(p.C, false).Permute(p.Perm, p.Perm)
		check(name, hp, p.BlockOffsets, p.N1)
		wantL, wantU := wholeLUInverse(t, hp.Submatrix(0, p.N1, 0, p.N1))
		if !csrBitsEqual(p.L1Inv, wantL) || !csrBitsEqual(p.U1Inv, wantU) {
			t.Fatalf("%s: preprocessed L1Inv/U1Inv differ from whole-matrix LU", name)
		}
		shapes[min(len(p.Blocks), 2)]++
	}
	if shapes[1] == 0 || shapes[2] == 0 {
		t.Fatalf("fixtures cover %v (block count → graphs), want one-block and multi-block H11", shapes)
	}

	var stacked []*sparse.CSR
	off := []int{0}
	for i, sz := range []int{7, 13, 1, 22, 5} {
		stacked = append(stacked, gen.ErdosRenyi(sz, 3*sz, int64(i)).HMatrixCSC(0.15, false).ToCSR())
		off = append(off, off[i]+sz)
	}
	check("five stacked blocks", sparse.BlockDiag(stacked).ToCSC(), off, off[5])
	one := gen.RMAT(gen.NewRMATPul(120, 700, 0.7, 5)).HMatrixCSC(0.05, false)
	check("one whole block", one, []int{0, 120}, 120)
}

// TestFactorBlocksSingularBlockNamed: a singular diagonal block fails the
// block-factor stage with an error naming that block.
func TestFactorBlocksSingularBlockNamed(t *testing.T) {
	good := sparse.NewCSR(2, 2, []sparse.Coord{{Row: 0, Col: 0, Val: 2}, {Row: 1, Col: 1, Val: 2}})
	bad := sparse.NewCSR(2, 2, []sparse.Coord{{Row: 0, Col: 0, Val: 1}}) // empty column: singular
	h := sparse.BlockDiag([]*sparse.CSR{good, good, bad}).ToCSC()
	_, _, err := factorBlocks(context.Background(), h, []int{0, 2, 4, 6})
	if err == nil {
		t.Fatal("a singular block factored without error")
	}
	if !strings.Contains(err.Error(), "block 2") {
		t.Fatalf("error %q does not name block 2", err)
	}
}

// cancelAfterPolls is a context whose Err reports context.Canceled from
// its n-th call on: the cancellation lands between two polls of a
// sequential pass, here between two diagonal blocks.
type cancelAfterPolls struct {
	context.Context
	polls, n int
}

func (c *cancelAfterPolls) Err() error {
	c.polls++
	if c.polls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestCancelBetweenBlocks: a context cancelled after the first diagonal
// block has been factored stops the pass before the next one, in
// preprocessing and in the incremental rebuild alike, with an error that
// matches errors.Is(err, ctx.Err()) and names the block it stopped at.
func TestCancelBetweenBlocks(t *testing.T) {
	g := gen.RMAT(gen.NewRMATPul(300, 1800, 0.7, 70))
	// Preprocessing polls once after the ordering, then once per block:
	// the third poll is the one before block 1.
	ctx := &cancelAfterPolls{Context: context.Background(), n: 3}
	_, err := PreprocessCtx(ctx, g, Options{K: 2})
	if !errors.Is(err, ctx.Err()) {
		t.Fatalf("PreprocessCtx error %v does not match the context's", err)
	}
	if !strings.Contains(err.Error(), "block 1") {
		t.Fatalf("PreprocessCtx error %q does not name block 1", err)
	}

	d, err := NewDynamic(g, Options{K: 2})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	applyEligibleChurn(t, rand.New(rand.NewSource(71)), d, 0.05)
	oldP := d.Precomputed()
	// The incremental pass polls once per dirty block: the second poll is
	// the one before the second dirty block.
	ctx = &cancelAfterPolls{Context: context.Background(), n: 2}
	if _, err := d.RebuildCtx(ctx, RebuildIncremental); !errors.Is(err, ctx.Err()) {
		t.Fatalf("incremental rebuild error %v does not match the context's", err)
	} else if !strings.Contains(err.Error(), "aborted before block") {
		t.Fatalf("incremental rebuild error %q does not name the block", err)
	}
	if d.Precomputed() != oldP {
		t.Fatal("cancelled incremental rebuild swapped in new matrices")
	}
}
