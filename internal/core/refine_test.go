package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"bear/internal/graph"
	"bear/internal/graph/gen"
)

// refineTestGraph is an R-MAT graph on which BEAR-Approx at ξ=0.001
// measurably loses accuracy (worst-seed cosine < 1−1e−6 vs BEAR-Exact),
// so refinement has real work to do.
func refineTestGraph() *graph.Graph {
	return gen.RMAT(gen.NewRMATPul(600, 4000, 0.6, 7))
}

// TestQueryRefinedConvergesOnRMAT is the acceptance criterion for the
// refinement layer: where plain BEAR-Approx (ξ=0.001) drops below cosine
// 1−1e−6 against BEAR-Exact, QueryRefined with tol=1e−9 must recover
// cosine ≥ 1−1e−9 within 10 sweeps.
func TestQueryRefinedConvergesOnRMAT(t *testing.T) {
	g := refineTestGraph()
	exact, err := Preprocess(g, Options{K: 2})
	if err != nil {
		t.Fatalf("Preprocess exact: %v", err)
	}
	approx, err := Preprocess(g, Options{K: 2, DropTol: 1e-3, KeepH: true})
	if err != nil {
		t.Fatalf("Preprocess approx: %v", err)
	}
	worstPlain := 1.0
	for seed := 0; seed < 20; seed++ {
		xe, err := exact.Query(seed)
		if err != nil {
			t.Fatalf("exact Query(%d): %v", seed, err)
		}
		xp, err := approx.Query(seed)
		if err != nil {
			t.Fatalf("approx Query(%d): %v", seed, err)
		}
		if c := cosine(xp, xe); c < worstPlain {
			worstPlain = c
		}
		q := make([]float64, g.N())
		q[seed] = 1
		xr, stats, err := approx.QueryRefined(q, 1e-9, 10)
		if err != nil {
			t.Fatalf("QueryRefined(%d): %v", seed, err)
		}
		if !stats.Converged {
			t.Fatalf("seed %d: refinement did not converge in 10 sweeps (residual %g)", seed, stats.Residual)
		}
		if stats.Sweeps > 10 {
			t.Fatalf("seed %d: %d sweeps, want <= 10", seed, stats.Sweeps)
		}
		if c := cosine(xr, xe); c < 1-1e-9 {
			t.Fatalf("seed %d: refined cosine %.15f, want >= 1-1e-9", seed, c)
		}
	}
	// The precondition that makes the test meaningful: the plain approx
	// answers genuinely were inaccurate before refinement.
	if worstPlain >= 1-1e-6 {
		t.Fatalf("worst plain cosine %.12f >= 1-1e-6; drop tolerance too timid for this test", worstPlain)
	}
}

// TestQueryRefinedTolZeroBitIdentical: refinement disabled must give the
// bit-exact plain query result, with zero allocations in steady state.
func TestQueryRefinedTolZeroBitIdentical(t *testing.T) {
	g := refineTestGraph()
	p, err := Preprocess(g, Options{K: 2, DropTol: 1e-3, KeepH: true})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	n := g.N()
	q := make([]float64, n)
	dst := make([]float64, n)
	want := make([]float64, n)
	ws := p.AcquireWorkspace()
	defer p.ReleaseWorkspace(ws)
	for seed := 0; seed < 10; seed++ {
		q[seed] = 1
		if err := p.QueryToCtx(context.Background(), want, seed, ws); err != nil {
			t.Fatalf("QueryToCtx: %v", err)
		}
		stats, err := p.QueryRefinedCtx(context.Background(), dst, q, 0, 0, ws)
		if err != nil {
			t.Fatalf("QueryRefinedCtx: %v", err)
		}
		if !stats.Converged || stats.Sweeps != 0 || !math.IsNaN(stats.Residual) {
			t.Fatalf("disabled-refinement stats = %+v, want converged, 0 sweeps, NaN residual", stats)
		}
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("seed %d node %d: refined(tol=0) %g != Query %g", seed, i, dst[i], want[i])
			}
		}
		q[seed] = 0
	}

	q[3] = 1
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := p.QueryRefinedCtx(ctx, dst, q, 0, 0, ws); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("QueryRefinedCtx(tol=0) allocates %.1f times per call, want 0", allocs)
	}
}

// TestQueryRefinedSteadyStateAllocFree: after the first refined solve has
// grown the workspace's refinement buffers, further refined queries through
// the same workspace allocate nothing.
func TestQueryRefinedSteadyStateAllocFree(t *testing.T) {
	g := refineTestGraph()
	p, err := Preprocess(g, Options{K: 2, DropTol: 1e-3, KeepH: true})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	q := make([]float64, g.N())
	q[3] = 1
	dst := make([]float64, g.N())
	ws := p.AcquireWorkspace()
	defer p.ReleaseWorkspace(ws)
	ctx := context.Background()
	// Warm up: grows ws.rq/rz/rr once.
	if _, err := p.QueryRefinedCtx(ctx, dst, q, 1e-9, 10, ws); err != nil {
		t.Fatalf("warm-up QueryRefinedCtx: %v", err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := p.QueryRefinedCtx(ctx, dst, q, 1e-9, 10, ws); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state refined query allocates %.1f times per call, want 0", allocs)
	}
}

// TestQueryRefinedPropertyStochastic: on a graph with no dangling nodes the
// transition matrix is row-stochastic, so exact RWR scores for a unit seed
// are nonnegative and sum to exactly 1; refined BEAR-Approx answers must
// recover both properties to within the refinement tolerance.
func TestQueryRefinedPropertyStochastic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 300
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		b.AddEdge(u, (u+1)%n, 1) // ring: every node has out-degree >= 1
		for e := 0; e < 4; e++ {
			b.AddEdge(u, rng.Intn(n), 0.5+rng.Float64())
		}
	}
	g := b.Build()
	p, err := Preprocess(g, Options{K: 2, DropTol: 5e-3, KeepH: true})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	for seed := 0; seed < 15; seed++ {
		q := make([]float64, n)
		q[seed] = 1
		x, stats, err := p.QueryRefined(q, 1e-10, 0)
		if err != nil {
			t.Fatalf("QueryRefined(%d): %v", seed, err)
		}
		if !stats.Converged {
			t.Fatalf("seed %d: not converged, residual %g after %d sweeps", seed, stats.Residual, stats.Sweeps)
		}
		var sum float64
		for i, v := range x {
			if v < -1e-9 {
				t.Fatalf("seed %d: score[%d] = %g, want nonnegative", seed, i, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("seed %d: scores sum to %.12f, want 1 (stochastic rows)", seed, sum)
		}
	}
}

// TestResidualMeasuresDropError: Residual is ~0 for exact factors, clearly
// nonzero for dropped factors, and back to ~tol after refinement.
func TestResidualMeasuresDropError(t *testing.T) {
	g := refineTestGraph()
	exact, err := Preprocess(g, Options{K: 2, KeepH: true})
	if err != nil {
		t.Fatalf("Preprocess exact: %v", err)
	}
	approx, err := Preprocess(g, Options{K: 2, DropTol: 1e-3, KeepH: true})
	if err != nil {
		t.Fatalf("Preprocess approx: %v", err)
	}
	q := make([]float64, g.N())
	q[5] = 1

	xe, err := exact.Query(5)
	if err != nil {
		t.Fatalf("exact Query: %v", err)
	}
	re, err := exact.Residual(xe, q)
	if err != nil {
		t.Fatalf("exact Residual: %v", err)
	}
	if re > 1e-12 {
		t.Fatalf("exact-factor residual %g, want ~rounding level", re)
	}

	xp, err := approx.Query(5)
	if err != nil {
		t.Fatalf("approx Query: %v", err)
	}
	rp, err := approx.Residual(xp, q)
	if err != nil {
		t.Fatalf("approx Residual: %v", err)
	}
	if rp <= 1e-12 {
		t.Fatalf("approx residual %g suspiciously small; drop tolerance had no effect", rp)
	}

	xr, stats, err := approx.QueryRefined(q, 1e-9, 10)
	if err != nil {
		t.Fatalf("QueryRefined: %v", err)
	}
	rr, err := approx.Residual(xr, q)
	if err != nil {
		t.Fatalf("refined Residual: %v", err)
	}
	if rr >= rp {
		t.Fatalf("refined residual %g not below plain residual %g", rr, rp)
	}
	// stats.Residual is the c-scaled measurement from the last sweep's
	// check; an independent Residual call on the final iterate must agree
	// to rounding.
	if math.Abs(rr-stats.Residual) > 1e-12 {
		t.Fatalf("Residual() = %g, stats.Residual = %g; want agreement", rr, stats.Residual)
	}
}

// TestRefineRequiresKeepH: the guardrail paths fail loudly, not silently,
// when H was not retained.
func TestRefineRequiresKeepH(t *testing.T) {
	g := gen.BarabasiAlbert(80, 2, 5)
	p, err := Preprocess(g, Options{K: 2, DropTol: 1e-3})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	q := make([]float64, g.N())
	q[0] = 1
	if _, _, err := p.QueryRefined(q, 1e-9, 0); err != ErrNoRetainedH {
		t.Fatalf("QueryRefined without KeepH: err = %v, want ErrNoRetainedH", err)
	}
	x, err := p.Query(0)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if _, err := p.Residual(x, q); err != ErrNoRetainedH {
		t.Fatalf("Residual without KeepH: err = %v, want ErrNoRetainedH", err)
	}
	// tol <= 0 never needs H and must keep working.
	if _, _, err := p.QueryRefined(q, 0, 0); err != nil {
		t.Fatalf("QueryRefined(tol=0) without KeepH: %v", err)
	}
}

// TestSaveLoadRetainsH: the precompute format round-trips the retained H
// bit-for-bit (v3), while H-less states keep writing the v2 format so old
// readers stay compatible.
func TestSaveLoadRetainsH(t *testing.T) {
	g := gen.BarabasiAlbert(120, 2, 9)
	p, err := Preprocess(g, Options{K: 2, DropTol: 1e-3, KeepH: true})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	if p.H == nil {
		t.Fatal("KeepH did not retain H")
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if got := string(buf.Bytes()[:8]); got != "BEARPC03" {
		t.Fatalf("magic %q, want BEARPC03 when H is retained", got)
	}
	p2, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if p2.H == nil {
		t.Fatal("loaded Precomputed lost H")
	}
	if p2.H.R != p.H.R || p2.H.C != p.H.C || len(p2.H.Val) != len(p.H.Val) {
		t.Fatalf("loaded H is %dx%d/%d nnz, want %dx%d/%d", p2.H.R, p2.H.C, len(p2.H.Val), p.H.R, p.H.C, len(p.H.Val))
	}
	for i := range p.H.Val {
		if p2.H.Val[i] != p.H.Val[i] || p2.H.ColIdx[i] != p.H.ColIdx[i] {
			t.Fatalf("loaded H differs at entry %d", i)
		}
	}
	// A refined query through the loaded state must behave identically.
	q := make([]float64, g.N())
	q[1] = 1
	x1, s1, err := p.QueryRefined(q, 1e-9, 10)
	if err != nil {
		t.Fatalf("QueryRefined original: %v", err)
	}
	x2, s2, err := p2.QueryRefined(q, 1e-9, 10)
	if err != nil {
		t.Fatalf("QueryRefined loaded: %v", err)
	}
	if s1.Sweeps != s2.Sweeps || maxAbsDiff(x1, x2) != 0 {
		t.Fatalf("loaded state refines differently: sweeps %d vs %d, diff %g", s1.Sweeps, s2.Sweeps, maxAbsDiff(x1, x2))
	}

	// Without H the format stays v2, byte-compatible with old readers.
	pNoH, err := Preprocess(g, Options{K: 2})
	if err != nil {
		t.Fatalf("Preprocess no-H: %v", err)
	}
	var buf2 bytes.Buffer
	if err := pNoH.Save(&buf2); err != nil {
		t.Fatalf("Save no-H: %v", err)
	}
	if got := string(buf2.Bytes()[:8]); got != "BEARPC02" {
		t.Fatalf("magic %q, want BEARPC02 when H is absent", got)
	}
}

// TestDynStateRetainsH: the dynamic-state snapshot round-trips KeepH and
// the retained H (v2 dynamic format), and H-less dynamics keep the v1
// format.
func TestDynStateRetainsH(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, 13)
	d, err := NewDynamic(g, Options{K: 2, DropTol: 1e-3, KeepH: true})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	if err := d.AddEdge(3, 50, 2.5); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	var buf bytes.Buffer
	if err := d.SaveState(&buf); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	if got := string(buf.Bytes()[:8]); got != "BEARDY02" {
		t.Fatalf("magic %q, want BEARDY02 with KeepH", got)
	}
	d2, err := LoadDynamic(&buf)
	if err != nil {
		t.Fatalf("LoadDynamic: %v", err)
	}
	if !d2.Options().KeepH {
		t.Fatal("restored Dynamic lost Options.KeepH")
	}
	if d2.Precomputed().H == nil {
		t.Fatal("restored Dynamic lost the retained H")
	}
	if d2.PendingNodes() != 1 {
		t.Fatalf("restored PendingNodes = %d, want 1", d2.PendingNodes())
	}

	dNoH, err := NewDynamic(g, Options{K: 2})
	if err != nil {
		t.Fatalf("NewDynamic no-H: %v", err)
	}
	var buf2 bytes.Buffer
	if err := dNoH.SaveState(&buf2); err != nil {
		t.Fatalf("SaveState no-H: %v", err)
	}
	if got := string(buf2.Bytes()[:8]); got != "BEARDY01" {
		t.Fatalf("magic %q, want BEARDY01 without KeepH", got)
	}
}

// TestPreprocessCtxCancellation: a cancelled context aborts preprocessing
// with an error matching context.Canceled, and a cancelled RebuildCtx
// leaves the previous state committed.
func TestPreprocessCtxCancellation(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 17)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PreprocessCtx(ctx, g, Options{K: 2}); err == nil {
		t.Fatal("PreprocessCtx with cancelled ctx succeeded")
	} else if !errorsIsCanceled(err) {
		t.Fatalf("PreprocessCtx error %v does not match context.Canceled", err)
	}

	d, err := NewDynamic(g, Options{K: 2})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	oldP := d.Precomputed()
	if err := d.AddEdge(1, 2, 2.5); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if _, err := d.RebuildCtx(ctx, RebuildAuto); err == nil {
		t.Fatal("RebuildCtx with cancelled ctx succeeded")
	} else if !errorsIsCanceled(err) {
		t.Fatalf("RebuildCtx error %v does not match context.Canceled", err)
	}
	if d.Precomputed() != oldP {
		t.Fatal("cancelled rebuild swapped in new matrices")
	}
	if d.PendingNodes() != 1 {
		t.Fatalf("cancelled rebuild changed PendingNodes to %d, want 1", d.PendingNodes())
	}
	if d.RebuildInProgress() {
		t.Fatal("rebuilding flag stuck after cancelled rebuild")
	}
	// The Dynamic must still be fully usable: rebuild with a live context.
	if err := d.Rebuild(); err != nil {
		t.Fatalf("Rebuild after cancelled attempt: %v", err)
	}
	if d.PendingNodes() != 0 {
		t.Fatalf("PendingNodes after successful rebuild = %d, want 0", d.PendingNodes())
	}
}

func errorsIsCanceled(err error) bool {
	return errors.Is(err, context.Canceled)
}

func BenchmarkQueryRefinedDisabled(b *testing.B) {
	g := refineTestGraph()
	p, err := Preprocess(g, Options{K: 2, DropTol: 1e-3, KeepH: true})
	if err != nil {
		b.Fatal(err)
	}
	q := make([]float64, g.N())
	q[3] = 1
	dst := make([]float64, g.N())
	ws := p.AcquireWorkspace()
	defer p.ReleaseWorkspace(ws)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.QueryRefinedCtx(ctx, dst, q, 0, 0, ws); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryRefined(b *testing.B) {
	g := refineTestGraph()
	p, err := Preprocess(g, Options{K: 2, DropTol: 1e-3, KeepH: true})
	if err != nil {
		b.Fatal(err)
	}
	q := make([]float64, g.N())
	q[3] = 1
	dst := make([]float64, g.N())
	ws := p.AcquireWorkspace()
	defer p.ReleaseWorkspace(ws)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.QueryRefinedCtx(ctx, dst, q, 1e-9, 10, ws); err != nil {
			b.Fatal(err)
		}
	}
}
