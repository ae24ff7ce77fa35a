package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"bear/internal/graph"
	"bear/internal/graph/gen"
)

// generalQuery computes a seed query through the unrestricted solver,
// bypassing the single-seed dispatch in solveTo. It is the reference the
// fast path must match bit-for-bit.
func generalQuery(p *Precomputed, q []float64) []float64 {
	dst := make([]float64, p.N)
	ws := p.AcquireWorkspace()
	if err := p.solveGeneralToCtx(context.Background(), dst, q, ws); err != nil {
		panic(err)
	}
	p.ReleaseWorkspace(ws)
	for i := range dst {
		dst[i] *= p.C
	}
	return dst
}

// assertBitIdentical fails unless got and want are equal under ==, i.e.
// exact floating-point equality with no tolerance.
func assertBitIdentical(t *testing.T, got, want []float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d is %v, general path gives %v (Δ=%g)",
				what, i, got[i], want[i], math.Abs(got[i]-want[i]))
		}
	}
}

// seedsCoveringStructure returns one seed inside every diagonal block plus
// every hub, so the fast path is exercised on each restriction range.
func seedsCoveringStructure(p *Precomputed) []int {
	inBlock := make(map[int]int, len(p.Blocks))
	var hubs []int
	for node := 0; node < p.N; node++ {
		if p.IsHub(node) {
			hubs = append(hubs, node)
			continue
		}
		bi := p.BlockOf(node)
		if _, ok := inBlock[bi]; !ok {
			inBlock[bi] = node
		}
	}
	seeds := make([]int, 0, len(inBlock)+len(hubs))
	for _, node := range inBlock {
		seeds = append(seeds, node)
	}
	seeds = append(seeds, hubs...)
	sort.Ints(seeds)
	return seeds
}

// TestFastPathBitIdentical is the tentpole equivalence guarantee: for
// seeds in every block and every hub, across the Laplacian and
// drop-tolerance variants, the block-restricted single-seed path must
// produce exactly the same bits as the general solver.
func TestFastPathBitIdentical(t *testing.T) {
	for name, g := range testGraphs(90) {
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
				for _, seed := range seedsCoveringStructure(p) {
					got, err := p.Query(seed)
					if err != nil {
						t.Fatalf("Query(%d): %v", seed, err)
					}
					q := make([]float64, p.N)
					q[seed] = 1
					want := generalQuery(p, q)
					kind := fmt.Sprintf("spoke seed %d (block %d)", seed, p.BlockOf(seed))
					if p.IsHub(seed) {
						kind = fmt.Sprintf("hub seed %d", seed)
					}
					assertBitIdentical(t, got, want, kind)
				}
			})
		}
	}
}

// TestQueryDistSingleSeedDispatch: a starting distribution with one
// nonzero entry (any weight) must route through the fast path and still
// match the general solver bit-for-bit.
func TestQueryDistSingleSeedDispatch(t *testing.T) {
	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 10, Size: 18, PIntra: 0.3, Hubs: 5, HubDeg: 20, Seed: 91})
	p, err := Preprocess(g, Options{K: 4})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 20; trial++ {
		q := make([]float64, p.N)
		seed := rng.Intn(p.N)
		q[seed] = 0.25 + rng.Float64()
		got, err := p.QueryDist(q)
		if err != nil {
			t.Fatalf("QueryDist: %v", err)
		}
		assertBitIdentical(t, got, generalQuery(p, q), fmt.Sprintf("dist seed %d", seed))
	}
	// Multi-seed distributions take the general path by construction; the
	// dispatch must not misfire on them.
	q := make([]float64, p.N)
	q[1], q[p.N-1] = 0.5, 0.5
	got, err := p.QueryDist(q)
	if err != nil {
		t.Fatalf("QueryDist multi: %v", err)
	}
	assertBitIdentical(t, got, generalQuery(p, q), "multi-seed dist")
}

// TestFastPathMatchesDirectSolve anchors the fast path to the
// LU-factorization oracle, not just to the general BEAR path.
func TestFastPathMatchesDirectSolve(t *testing.T) {
	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 8, Size: 15, PIntra: 0.35, Hubs: 4, HubDeg: 18, Seed: 93})
	p, err := Preprocess(g, Options{C: 0.05, K: 3})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	for _, seed := range seedsCoveringStructure(p) {
		got, err := p.Query(seed)
		if err != nil {
			t.Fatalf("Query(%d): %v", seed, err)
		}
		q := make([]float64, p.N)
		q[seed] = 1
		want := directSolve(t, g, p.C, q)
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Fatalf("seed %d: max abs diff %g vs direct solve", seed, d)
		}
	}
}

// TestQueryToZeroAllocs is the allocation regression gate: with a warmed
// workspace, the *To query paths must not touch the heap at all.
func TestQueryToZeroAllocs(t *testing.T) {
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
	q := make([]float64, p.N)
	q[3], q[70], q[140] = 0.2, 0.5, 0.3
	hub := -1
	for node := 0; node < p.N; node++ {
		if p.IsHub(node) {
			hub = node
			break
		}
	}
	var qerr error
	cases := []struct {
		name string
		fn   func()
	}{
		{"QueryTo/spoke", func() { qerr = p.QueryTo(dst, 1, ws) }},
		{"QueryTo/hub", func() { qerr = p.QueryTo(dst, hub, ws) }},
		{"QueryDistTo/general", func() { qerr = p.QueryDistTo(dst, q, ws) }},
	}
	for _, c := range cases {
		if hub < 0 && c.name == "QueryTo/hub" {
			continue
		}
		c.fn() // warm any lazy state before measuring
		if allocs := testing.AllocsPerRun(50, c.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, allocs)
		}
		if qerr != nil {
			t.Fatalf("%s: %v", c.name, qerr)
		}
	}
	// The allocating wrappers should spend their allocations on the result
	// alone, not on solver scratch.
	if allocs := testing.AllocsPerRun(50, func() { _, qerr = p.Query(1) }); allocs > 1 {
		t.Errorf("Query: %v allocs/op, want ≤ 1 (result only)", allocs)
	}
}

// TestDynamicQueryToZeroAllocs pins the serving layer's miss path: with
// no pending updates, Dynamic.QueryToCtx into a reused dst must not touch
// the heap.
func TestDynamicQueryToZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are only meaningful without -race")
	}
	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 10, Size: 20, PIntra: 0.3, Hubs: 5, HubDeg: 25, Seed: 94})
	d, err := NewDynamic(g, Options{})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	p := d.Precomputed()
	hub := -1
	for node := 0; node < p.N; node++ {
		if p.IsHub(node) {
			hub = node
			break
		}
	}
	ctx := context.Background()
	dst := make([]float64, p.N)
	for _, seed := range []int{1, hub} {
		if seed < 0 {
			continue
		}
		var qerr error
		fn := func() { qerr = d.QueryToCtx(ctx, dst, seed) }
		fn() // warm the workspace pool before measuring
		if allocs := testing.AllocsPerRun(50, fn); allocs != 0 {
			t.Errorf("QueryToCtx seed %d: %v allocs/op, want 0", seed, allocs)
		}
		if qerr != nil {
			t.Fatalf("QueryToCtx seed %d: %v", seed, qerr)
		}
	}
}

// TestDynamicQueryToMatchesQuery checks the dst-writing forms against the
// allocating ones bit for bit, with and without pending updates, into
// destinations pre-filled with garbage (pooled vectors arrive dirty), and
// with QueryDistToCtx solving in place over its own starting vector.
func TestDynamicQueryToMatchesQuery(t *testing.T) {
	g := gen.RMAT(gen.NewRMATPul(300, 1800, 0.7, 51))
	d, err := NewDynamic(g, Options{K: 2})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	ctx := context.Background()
	n := g.N()
	garbage := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = math.NaN()
		}
		return v
	}
	seeds := []int{0, 7, 42, 99, 150, 299, 7, 3, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	for _, pending := range []bool{false, true} {
		if pending {
			if err := d.AddEdge(7, 150, 2); err != nil {
				t.Fatal(err)
			}
			if err := d.AddEdge(42, 3, 1); err != nil {
				t.Fatal(err)
			}
		}
		// Without pending updates the static index is an independent
		// reference; with them, the allocating wrapper is.
		ref := d.Query
		if !pending {
			ref = d.Precomputed().Query
		}
		for _, seed := range seeds[:6] {
			want, err := ref(seed)
			if err != nil {
				t.Fatal(err)
			}
			got := garbage()
			if err := d.QueryToCtx(ctx, got, seed); err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, got, want, fmt.Sprintf("pending=%v QueryToCtx(%d)", pending, seed))
		}
		q := make([]float64, n)
		q[3], q[99], q[250] = 0.5, 0.25, 2
		want, err := d.QueryDist(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.QueryDistToCtx(ctx, q, q); err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, q, want, fmt.Sprintf("pending=%v QueryDistToCtx in place", pending))
		for _, workers := range []int{0, 1, 3} {
			dst := make([][]float64, len(seeds))
			for i := range dst {
				dst[i] = garbage()
			}
			if err := d.QueryBatchToCtx(ctx, dst, seeds, workers); err != nil {
				t.Fatal(err)
			}
			for i, seed := range seeds {
				want, err := ref(seed)
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, dst[i], want, fmt.Sprintf("pending=%v workers=%d batch seed %d", pending, workers, seed))
			}
		}
	}
	if err := d.QueryToCtx(ctx, make([]float64, n-1), 0); err == nil {
		t.Fatal("QueryToCtx accepted a short destination")
	}
	if err := d.QueryToCtx(ctx, make([]float64, n), n); err == nil {
		t.Fatal("QueryToCtx accepted an out-of-range seed")
	}
	if err := d.QueryDistToCtx(ctx, make([]float64, n+1), make([]float64, n)); err == nil {
		t.Fatal("QueryDistToCtx accepted a long destination")
	}
	if err := d.QueryBatchToCtx(ctx, make([][]float64, 1), []int{0, 1}, 0); err == nil {
		t.Fatal("QueryBatchToCtx accepted mismatched destinations")
	}
}

// TestWorkspaceReleaseMismatch: releasing a foreign workspace must panic
// loudly rather than poison the pool with wrongly-sized buffers.
func TestWorkspaceReleaseMismatch(t *testing.T) {
	g1 := gen.ErdosRenyi(30, 90, 95)
	g2 := gen.ErdosRenyi(50, 150, 96)
	p1, err := Preprocess(g1, Options{K: 1})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	p2, err := Preprocess(g2, Options{K: 1})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic releasing a foreign workspace")
		}
	}()
	p2.ReleaseWorkspace(p1.AcquireWorkspace())
}

// TestConcurrentBatchAndQueryToRace hammers the shared workspace pool from
// QueryBatch and explicit per-goroutine workspaces at once; run with -race
// this is the data-race gate for the pooled query engine.
func TestConcurrentBatchAndQueryToRace(t *testing.T) {
	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 8, Size: 15, PIntra: 0.3, Hubs: 4, HubDeg: 15, Seed: 97})
	p, err := Preprocess(g, Options{K: 3})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	want, err := p.Query(2)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	seeds := make([]int, 24)
	for i := range seeds {
		seeds[i] = (i * 11) % p.N
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				for rep := 0; rep < 5; rep++ {
					if _, err := p.QueryBatch(seeds, 3); err != nil {
						errs <- err
						return
					}
				}
				return
			}
			ws := p.AcquireWorkspace()
			defer p.ReleaseWorkspace(ws)
			dst := make([]float64, p.N)
			for rep := 0; rep < 40; rep++ {
				if err := p.QueryTo(dst, 2, ws); err != nil {
					errs <- err
					return
				}
				if maxAbsDiff(dst, want) != 0 {
					errs <- errNondeterministic
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestBlockOfBinarySearch cross-checks the binary-search BlockOf against a
// linear walk over the block sizes.
func TestBlockOfBinarySearch(t *testing.T) {
	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 12, Size: 10, PIntra: 0.4, Hubs: 4, HubDeg: 12, Seed: 98})
	p, err := Preprocess(g, Options{K: 3})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	linear := func(pos int) int {
		off := 0
		for i, sz := range p.Blocks {
			off += sz
			if pos < off {
				return i
			}
		}
		return -1
	}
	for node := 0; node < p.N; node++ {
		want := -1
		if pos := p.Perm[node]; pos < p.N1 {
			want = linear(pos)
		}
		if got := p.BlockOf(node); got != want {
			t.Fatalf("BlockOf(%d) = %d, want %d", node, got, want)
		}
	}
	if len(p.BlockOffsets) != len(p.Blocks)+1 || p.BlockOffsets[len(p.Blocks)] != p.N1 {
		t.Fatalf("BlockOffsets %v inconsistent with Blocks %v (n1=%d)", p.BlockOffsets, p.Blocks, p.N1)
	}
}

// BenchmarkTopK ranks the top 10 of one RWR score vector on an n=8,000
// web-like R-MAT graph, the ranking scan every query miss pays after its
// solve.
func BenchmarkTopK(b *testing.B) {
	g := gen.RMAT(gen.NewRMATPul(8000, 40000, 0.8, 7))
	p, err := Preprocess(g, Options{})
	if err != nil {
		b.Fatal(err)
	}
	scores, err := p.Query(17)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topKSink = TopK(scores, 10)
	}
}

var topKSink []int

// TestTopKMatchesSelectionSort checks the bounded-heap TopK, and the
// TopKExcluding/TopKCandidates filters over it, against a full sort of the
// surviving ids: descending score, ties by ascending id, NaN last. Inputs
// mix heavy ties, NaN, ±0, ±Inf and k at or past the candidate count, so
// every branch of the threshold scan (real and NaN heap roots) is hit.
func TestTopKMatchesSelectionSort(t *testing.T) {
	reference := func(scores []float64, k int, skip func(int) bool) []int {
		var idx []int
		for i := range scores {
			if skip == nil || !skip(i) {
				idx = append(idx, i)
			}
		}
		sort.Slice(idx, func(a, b int) bool {
			x, y := idx[a], idx[b]
			sx, sy := scores[x], scores[y]
			switch {
			case math.IsNaN(sx):
				return math.IsNaN(sy) && x < y
			case math.IsNaN(sy):
				return true
			}
			return sx > sy || (sx == sy && x < y)
		})
		if k > len(idx) {
			k = len(idx)
		}
		if k < 0 {
			k = 0
		}
		return idx[:k]
	}
	check := func(what string, got, want []int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: got %d ids %v, want %d %v", what, len(got), got, len(want), want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: position %d is %d, want %d (got %v, want %v)", what, i, got[i], want[i], got, want)
			}
		}
	}
	special := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 600; trial++ {
		n := 1 + rng.Intn(200)
		scores := make([]float64, n)
		// Each trial draws its own share of special values, from none
		// (the plain quantized case) to all of them (NaN-rooted heaps).
		specialFrac := []float64{0, 0.05, 0.3, 1}[trial%4]
		for i := range scores {
			if rng.Float64() < specialFrac {
				scores[i] = special[rng.Intn(len(special))]
			} else {
				// Coarse quantization forces many exact ties.
				scores[i] = float64(rng.Intn(8)-2) / 7
			}
		}
		k := rng.Intn(n + 10)
		what := fmt.Sprintf("trial %d n=%d k=%d", trial, n, k)
		check(what+" TopK", TopK(scores, k), reference(scores, k, nil))

		drop := make([]bool, n)
		for i := range drop {
			drop[i] = rng.Intn(3) == 0
		}
		skip := func(i int) bool { return drop[i] }
		check(what+" TopKExcluding", TopKExcluding(scores, k, skip), reference(scores, k, skip))

		b := graph.NewBuilder(n)
		for e := rng.Intn(4 * n); e > 0; e-- {
			b.AddEdge(rng.Intn(n), rng.Intn(n), 1)
		}
		g := b.Build()
		seed := rng.Intn(n)
		notCandidate := func(v int) bool { return v == seed || g.HasEdge(seed, v) }
		check(what+" TopKCandidates", TopKCandidates(g, scores, seed, k), reference(scores, k, notCandidate))
	}
	if got := TopK([]float64{1, 2}, 0); len(got) != 0 {
		t.Fatalf("TopK k=0 returned %v", got)
	}
	if got := TopK(nil, 5); len(got) != 0 {
		t.Fatalf("TopK on empty scores returned %v", got)
	}
}
