package core

import (
	"context"
	"testing"

	"bear/internal/graph/gen"
	"bear/internal/obsv"
)

// countSpans folds a span list into name -> occurrence count.
func countSpans(spans []obsv.Span) map[string]int {
	c := make(map[string]int)
	for _, s := range spans {
		c[s.Name]++
	}
	return c
}

// TestQueryTracePropagation: a trace installed in the query context must
// record every solver stage of Algorithm 2 exactly once per single-seed
// query, for spoke and hub seeds alike. A seed whose block is isolated
// reaches no hub and records forward_solve alone.
func TestQueryTracePropagation(t *testing.T) {
	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 6, Size: 15, PIntra: 0.3, Hubs: 4, HubDeg: 20, Seed: 7})
	p, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	if p.N2 == 0 {
		t.Fatal("test graph has no hubs; stage coverage would be vacuous")
	}
	spoke, hub := -1, -1
	for node := 0; node < p.N; node++ {
		if p.IsHub(node) {
			hub = node
		} else {
			spoke = node
		}
	}
	stages := []string{obsv.SpanForwardSolve, obsv.SpanSchurSolve, obsv.SpanBackSolve}
	for _, tc := range []struct {
		name string
		seed int
	}{{"spoke", spoke}, {"hub", hub}} {
		tr := obsv.NewTrace()
		ctx := obsv.WithTrace(context.Background(), tr)
		if err := p.QueryToCtx(ctx, make([]float64, p.N), tc.seed, nil); err != nil {
			t.Fatalf("%s: QueryToCtx: %v", tc.name, err)
		}
		got := countSpans(tr.Spans())
		for _, stage := range stages {
			if got[stage] != 1 {
				t.Errorf("%s seed: stage %s recorded %d times, want exactly 1 (spans: %v)",
					tc.name, stage, got[stage], tr.Spans())
			}
		}
		if len(got) != len(stages) {
			t.Errorf("%s seed: unexpected extra stages in %v", tc.name, tr.Spans())
		}
	}

	// The general-distribution path records the same three stages.
	q := make([]float64, p.N)
	q[spoke], q[hub] = 0.5, 0.5
	tr := obsv.NewTrace()
	if err := p.QueryDistToCtx(obsv.WithTrace(context.Background(), tr), q, q, nil); err != nil {
		t.Fatalf("QueryDistToCtx: %v", err)
	}
	got := countSpans(tr.Spans())
	for _, stage := range stages {
		if got[stage] != 1 {
			t.Errorf("dist query: stage %s recorded %d times, want 1", stage, got[stage])
		}
	}

	// The caveman fixture has no isolated seed; an rmat one supplies it.
	iso, err := Preprocess(testGraphs(1)["rmat"], Options{})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	tr = obsv.NewTrace()
	seed := firstIsolatedSeed(t, iso)
	if err := iso.QueryToCtx(obsv.WithTrace(context.Background(), tr), make([]float64, iso.N), seed, nil); err != nil {
		t.Fatalf("isolated QueryToCtx: %v", err)
	}
	if got := countSpans(tr.Spans()); got[obsv.SpanForwardSolve] != 1 || len(got) != 1 {
		t.Errorf("isolated seed %d: spans %v, want forward_solve alone, once", seed, tr.Spans())
	}
}

// TestBatchTracePropagation: the blocked multi-RHS path records the stage
// set once per chunk; a single-chunk batch therefore shows each exactly
// once, regardless of how many seeds it carries.
func TestBatchTracePropagation(t *testing.T) {
	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 6, Size: 15, PIntra: 0.3, Hubs: 4, HubDeg: 20, Seed: 8})
	p, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	tr := obsv.NewTrace()
	ctx := obsv.WithTrace(context.Background(), tr)
	seeds := []int{0, 1, 2, 3}
	dst := make([][]float64, len(seeds))
	for i := range dst {
		dst[i] = make([]float64, p.N)
	}
	if err := p.QueryBatchToCtx(ctx, dst, seeds, 0); err != nil {
		t.Fatalf("QueryBatchToCtx: %v", err)
	}
	got := countSpans(tr.Spans())
	for _, stage := range []string{obsv.SpanForwardSolve, obsv.SpanSchurSolve, obsv.SpanBackSolve} {
		if got[stage] != 1 {
			t.Errorf("batch: stage %s recorded %d times, want 1 (one chunk)", stage, got[stage])
		}
	}
}

// TestTopKTracePropagation: a top-k query answered by the block-pruned
// solve records the three Algorithm 2 stages, exactly once each.
func TestTopKTracePropagation(t *testing.T) {
	g := gen.CavemanHubs(gen.CavemanHubsConfig{
		Communities: 40, Size: 30, PIntra: 0.4, Hubs: 4, HubDeg: 25, Seed: 5,
	})
	d, err := NewDynamic(g, Options{})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	checked := 0
	for _, seed := range []int{10, 400, 900} {
		tr := obsv.NewTrace()
		res, err := d.QueryTopKCtx(obsv.WithTrace(context.Background(), tr), seed, 10)
		if err != nil {
			t.Fatalf("QueryTopKCtx(%d): %v", seed, err)
		}
		if res.Stats.BlocksSolved == 0 {
			continue // answered without the block-pruned solve
		}
		checked++
		got := countSpans(tr.Spans())
		for _, stage := range []string{obsv.SpanForwardSolve, obsv.SpanSchurSolve, obsv.SpanBackSolve} {
			if got[stage] != 1 {
				t.Errorf("seed %d: stage %s recorded %d times, want 1 (spans: %v)", seed, stage, got[stage], tr.Spans())
			}
		}
	}
	if checked == 0 {
		t.Fatal("no seed reached the block-pruned solve; the test checked nothing")
	}
}

// TestDynamicTraceWoodbury: with pending updates, a traced query shows the
// Woodbury correction stage, and the first query after an update also
// shows the refresh.
func TestDynamicTraceWoodbury(t *testing.T) {
	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 5, Size: 12, PIntra: 0.3, Hubs: 3, HubDeg: 15, Seed: 9})
	d, err := NewDynamic(g, Options{})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	// Weight 2.5 differs from any existing weight, so the set-edge update
	// genuinely changes the row and marks node 1 dirty.
	if err := d.AddEdge(1, 2, 2.5); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	tr := obsv.NewTrace()
	ctx := obsv.WithTrace(context.Background(), tr)
	dst := make([]float64, d.n)
	if err := d.QueryToCtx(ctx, dst, 0); err != nil {
		t.Fatalf("QueryToCtx: %v", err)
	}
	got := countSpans(tr.Spans())
	if got[obsv.SpanWoodburyRefresh] != 1 {
		t.Errorf("first post-update query: woodbury_refresh recorded %d times, want 1", got[obsv.SpanWoodburyRefresh])
	}
	if got[obsv.SpanWoodburyTerms] != 1 {
		t.Errorf("post-update query: woodbury_terms recorded %d times, want 1", got[obsv.SpanWoodburyTerms])
	}

	// Second query reuses the Woodbury cache: no refresh, still corrected.
	tr2 := obsv.NewTrace()
	if err := d.QueryToCtx(obsv.WithTrace(context.Background(), tr2), dst, 0); err != nil {
		t.Fatalf("QueryToCtx: %v", err)
	}
	got2 := countSpans(tr2.Spans())
	if got2[obsv.SpanWoodburyRefresh] != 0 {
		t.Errorf("warm query: woodbury_refresh recorded %d times, want 0", got2[obsv.SpanWoodburyRefresh])
	}
	if got2[obsv.SpanWoodburyTerms] != 1 {
		t.Errorf("warm query: woodbury_terms recorded %d times, want 1", got2[obsv.SpanWoodburyTerms])
	}
}

// TestPreprocessCtxTrace: PreprocessCtx records the Algorithm 1 stage
// split into the carried trace.
func TestPreprocessCtxTrace(t *testing.T) {
	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 5, Size: 12, PIntra: 0.3, Hubs: 3, HubDeg: 15, Seed: 10})
	tr := obsv.NewTrace()
	p, err := PreprocessCtx(obsv.WithTrace(context.Background(), tr), g, Options{})
	if err != nil {
		t.Fatalf("PreprocessCtx: %v", err)
	}
	got := countSpans(tr.Spans())
	for _, stage := range []string{obsv.SpanOrdering, obsv.SpanBlockLU, obsv.SpanSchurAssembly, obsv.SpanSchurFactor} {
		if got[stage] != 1 {
			t.Errorf("stage %s recorded %d times, want 1", stage, got[stage])
		}
	}
	if p.Stats.TimeTotal <= 0 {
		t.Error("preprocess total time not recorded")
	}
}

// TestQueryCtxDisabledTraceZeroAllocs is the disabled-trace allocation
// gate: with no trace in the context — including a context that carries
// other values, as server request contexts do — the instrumented query
// path must stay allocation-free.
func TestQueryCtxDisabledTraceZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are only meaningful without -race")
	}
	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 10, Size: 20, PIntra: 0.3, Hubs: 5, HubDeg: 25, Seed: 94})
	p, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	ws := p.AcquireWorkspace()
	defer p.ReleaseWorkspace(ws)
	dst := make([]float64, p.N)
	type otherKey struct{}
	ctx := context.WithValue(context.Background(), otherKey{}, "not a trace")
	var qerr error
	fn := func() { qerr = p.QueryToCtx(ctx, dst, 1, ws) }
	fn()
	if qerr != nil {
		t.Fatalf("QueryToCtx: %v", qerr)
	}
	if allocs := testing.AllocsPerRun(50, fn); allocs != 0 {
		t.Errorf("disabled-trace QueryToCtx: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkQueryCtxDisabledTrace is the steady-state benchmark guard for
// the disabled-trace hot path; run with -benchmem it must report
// 0 allocs/op.
func BenchmarkQueryCtxDisabledTrace(b *testing.B) {
	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 10, Size: 20, PIntra: 0.3, Hubs: 5, HubDeg: 25, Seed: 94})
	p, err := Preprocess(g, Options{})
	if err != nil {
		b.Fatalf("Preprocess: %v", err)
	}
	ws := p.AcquireWorkspace()
	defer p.ReleaseWorkspace(ws)
	dst := make([]float64, p.N)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.QueryToCtx(ctx, dst, i%p.N1, ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryCtxEnabledTrace measures the tracing overhead when a
// trace IS carried — a handful of clock reads and one span append per
// stage — so regressions in the instrumentation itself show up.
func BenchmarkQueryCtxEnabledTrace(b *testing.B) {
	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 10, Size: 20, PIntra: 0.3, Hubs: 5, HubDeg: 25, Seed: 94})
	p, err := Preprocess(g, Options{})
	if err != nil {
		b.Fatalf("Preprocess: %v", err)
	}
	ws := p.AcquireWorkspace()
	defer p.ReleaseWorkspace(ws)
	dst := make([]float64, p.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := obsv.WithTrace(context.Background(), obsv.NewTrace())
		if err := p.QueryToCtx(ctx, dst, i%p.N1, ws); err != nil {
			b.Fatal(err)
		}
	}
}
