package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"bear/internal/graph/gen"
)

// distOptionSets are the four index variants the ranked-read contract is
// checked under.
var distOptionSets = map[string]Options{
	"exact":     {},
	"approx":    {DropTol: 1e-6},
	"laplacian": {Laplacian: true},
	"mindeg":    {Ordering: "mindeg"},
}

// randomDist draws a 1–4-entry distribution: distinct nodes, weights in
// (0.1, 1.1), one weight in four set to zero, and hubs drawn half the
// time when the index has them.
func randomDist(rng *rand.Rand, p *Precomputed) ([]int, []float64) {
	m := 1 + rng.Intn(4)
	seen := map[int]bool{}
	var nodes []int
	var weights []float64
	for len(nodes) < m && len(seen) < p.N {
		v := rng.Intn(p.N)
		if p.N2 > 0 && rng.Intn(2) == 0 {
			v = p.InvPerm[p.N1+rng.Intn(p.N2)]
		}
		if seen[v] {
			continue
		}
		seen[v] = true
		w := 0.1 + rng.Float64()
		if rng.Intn(4) == 0 {
			w = 0
		}
		nodes, weights = append(nodes, v), append(weights, w)
	}
	return nodes, weights
}

// denseDist returns the distribution as the n-length vector QueryDist takes.
func denseDist(n int, nodes []int, weights []float64) []float64 {
	q := make([]float64, n)
	for i, v := range nodes {
		q[v] = weights[i]
	}
	return q
}

// checkTopKBits asserts that res is TopK(ref, k) with ref's scores, under
// math.Float64bits.
func checkTopKBits(t *testing.T, what string, res *TopKResult, ref []float64, k int) {
	t.Helper()
	want := TopK(ref, k)
	if len(res.Nodes) != len(want) || len(res.Scores) != len(want) {
		t.Fatalf("%s: %d nodes / %d scores, want %d (stats %+v)", what, len(res.Nodes), len(res.Scores), len(want), res.Stats)
	}
	for i, v := range res.Nodes {
		if v != want[i] || math.Float64bits(res.Scores[i]) != math.Float64bits(ref[v]) {
			t.Fatalf("%s: rank %d is node %d score %v, reference node %d score %v (stats %+v)",
				what, i, v, res.Scores[i], want[i], ref[want[i]], res.Stats)
		}
	}
}

// TestDistTopKMatchesQueryDist is the contract of the top-k solve for a
// sparse weighted distribution: on every fixture and index variant,
// QueryDistTopKCtx returns TopK over QueryDist of the same dense vector,
// nodes, order and score bits, whichever path answers — isolated blocks
// ranked directly, the block-pruned solve, or either fallback. Random 1–4
// entry distributions include hub nodes and zero weights; a final pass
// repeats a sample with pending updates.
func TestDistTopKMatchesQueryDist(t *testing.T) {
	graphs := testGraphs(3)
	graphs["rmat8000"] = gen.RMAT(gen.NewRMATPul(8000, 40000, 0.8, 5))
	for gname, g := range graphs {
		for oname, opts := range distOptionSets {
			if gname == "rmat8000" && oname != "exact" && testing.Short() {
				continue
			}
			t.Run(gname+"/"+oname, func(t *testing.T) {
				d, err := NewDynamic(g, opts)
				if err != nil {
					t.Fatalf("NewDynamic: %v", err)
				}
				p := d.Precomputed()
				rng := rand.New(rand.NewSource(int64(len(gname) * 31)))
				paths := map[string]int{}
				check := func(trial int, nodes []int, weights []float64) {
					ref, err := d.QueryDist(denseDist(p.N, nodes, weights))
					if err != nil {
						t.Fatalf("QueryDist: %v", err)
					}
					for _, k := range []int{1, 10, 100} {
						res, err := d.QueryDistTopKCtx(context.Background(), nodes, weights, k)
						if err != nil {
							t.Fatalf("trial %d k=%d: %v", trial, k, err)
						}
						checkTopKBits(t, fmt.Sprintf("trial %d %v/%v k=%d", trial, nodes, weights, k), res, ref, k)
						path := res.Stats.Fallback
						if path == "" {
							path = fmt.Sprintf("solved-%d", min(res.Stats.BlocksSolved, 2))
						}
						paths[path]++
					}
				}
				for trial := 0; trial < 40; trial++ {
					nodes, weights := randomDist(rng, p)
					check(trial, nodes, weights)
				}
				t.Logf("paths: %v", paths)
				if g.N() > 1 {
					if err := d.AddEdge(0, g.N()-1, 2.5); err != nil {
						t.Fatalf("AddEdge: %v", err)
					}
					for trial := 0; trial < 5; trial++ {
						nodes, weights := randomDist(rng, p)
						check(trial, nodes, weights)
					}
				}
			})
		}
	}
}

// TestDistTopKOneSeedIsQueryTopK pins QueryTopKCtx as the one-seed form:
// a unit distribution answers exactly like the seed query, and a one-hot
// distribution of another weight like the dense QueryDist it stands for.
func TestDistTopKOneSeedIsQueryTopK(t *testing.T) {
	d, err := NewDynamic(testGraphs(1)["caveman"], Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := d.Precomputed().N
	for _, seed := range []int{0, n / 2, n - 1} {
		ref, err := d.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.QueryTopK(seed, 10)
		if err != nil {
			t.Fatal(err)
		}
		checkTopKBits(t, fmt.Sprintf("QueryTopK(%d)", seed), res, ref, 10)
		ref, err = d.QueryDist(unitVector(n, seed, 0.25))
		if err != nil {
			t.Fatal(err)
		}
		res, err = d.QueryDistTopKCtx(context.Background(), []int{seed}, []float64{0.25}, 10)
		if err != nil {
			t.Fatal(err)
		}
		checkTopKBits(t, fmt.Sprintf("one-hot 0.25 on %d", seed), res, ref, 10)
	}
}

func TestDistTopKValidation(t *testing.T) {
	d, err := NewDynamic(testGraphs(1)["er-small"], Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, tc := range map[string]struct {
		nodes   []int
		weights []float64
		k       int
	}{
		"length mismatch": {[]int{1, 2}, []float64{1}, 5},
		"negative node":   {[]int{-1}, []float64{1}, 5},
		"node past n":     {[]int{60}, []float64{1}, 5},
		"negative weight": {[]int{1}, []float64{-1}, 5},
		"NaN weight":      {[]int{1}, []float64{math.NaN()}, 5},
		"Inf weight":      {[]int{1}, []float64{math.Inf(1)}, 5},
		"duplicate node":  {[]int{3, 3}, []float64{1, 2}, 5},
		"zero k":          {[]int{1}, []float64{1}, 0},
	} {
		if _, err := d.QueryDistTopKCtx(ctx, tc.nodes, tc.weights, tc.k); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// An all-zero distribution solves to all zeros: the k lowest ids.
	res, err := d.QueryDistTopKCtx(ctx, []int{4, 9}, []float64{0, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Nodes {
		if v != i || res.Scores[i] != 0 {
			t.Fatalf("all-zero distribution: %v %v, want nodes 0,1,2 with score 0", res.Nodes, res.Scores)
		}
	}
}

// TestQueryCandidatesMatchesTopKCandidates: QueryCandidatesCtx is
// TopKCandidates over Query on the current graph, nodes, order and score
// bits, on every fixture, for ordinary seeds, hubs and the highest
// out-degree seed (whose request can pass the no_threshold bound), and
// again after an update gives a seed a new out-neighbor, which it must
// then exclude.
func TestQueryCandidatesMatchesTopKCandidates(t *testing.T) {
	ctx := context.Background()
	for gname, g := range testGraphs(4) {
		t.Run(gname, func(t *testing.T) {
			d, err := NewDynamic(g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			p := d.Precomputed()
			n := p.N
			maxOut := 0
			for v := 1; v < n; v++ {
				if g.OutDegree(v) > g.OutDegree(maxOut) {
					maxOut = v
				}
			}
			seeds := []int{0, n / 3, n - 1, maxOut}
			if p.N2 > 0 {
				seeds = append(seeds, p.InvPerm[p.N1])
			}
			check := func(seed int) {
				ref, err := d.Query(seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 3, 10, n} {
					res, err := d.QueryCandidatesCtx(ctx, seed, k)
					if err != nil {
						t.Fatalf("seed %d k=%d: %v", seed, k, err)
					}
					want := TopKCandidates(d.Graph(), ref, seed, k)
					if len(res.Nodes) != len(want) || len(res.Scores) != len(want) {
						t.Fatalf("seed %d k=%d: %d nodes, want %d (stats %+v)", seed, k, len(res.Nodes), len(want), res.Stats)
					}
					for i, v := range res.Nodes {
						if v != want[i] || math.Float64bits(res.Scores[i]) != math.Float64bits(ref[v]) {
							t.Fatalf("seed %d k=%d: rank %d is node %d score %v, reference node %d score %v",
								seed, k, i, v, res.Scores[i], want[i], ref[want[i]])
						}
					}
				}
			}
			for _, seed := range seeds {
				check(seed)
			}
			top, err := d.QueryCandidatesCtx(ctx, seeds[1], 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(top.Nodes) == 1 {
				if err := d.AddEdge(seeds[1], top.Nodes[0], 1); err != nil {
					t.Fatal(err)
				}
				check(seeds[1])
				again, err := d.QueryCandidatesCtx(ctx, seeds[1], 1)
				if err != nil {
					t.Fatal(err)
				}
				if len(again.Nodes) == 1 && again.Nodes[0] == top.Nodes[0] {
					t.Fatalf("seed %d still lists %d after the edge to it was added", seeds[1], top.Nodes[0])
				}
			}
			for _, k := range []int{0, -1} {
				if _, err := d.QueryCandidatesCtx(ctx, 0, k); err == nil {
					t.Errorf("k=%d accepted", k)
				}
			}
			for _, seed := range []int{-1, n} {
				if _, err := d.QueryCandidatesCtx(ctx, seed, 3); err == nil {
					t.Errorf("seed %d accepted", seed)
				}
			}
		})
	}
}

// TestTopKFallbackAllocations pins the full-solve fallback's memory: it
// solves into a pooled workspace, so a fallback answer allocates its
// result and the Woodbury correction's k-length terms, never an n-length
// score vector. Both fallbacks are measured on a 4,012-node graph, where
// one score vector is 32 KB.
func TestTopKFallbackAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled workspaces at random; allocation bytes are only meaningful without -race")
	}
	g := gen.StarMail(gen.StarMailConfig{Core: 12, Periphery: 4000, LeafDeg: 2, PCore: 0.4, Seed: 47})
	measure := func(t *testing.T, d *Dynamic, seed, k int, want string) {
		t.Helper()
		ctx := context.Background()
		res, err := d.QueryTopKCtx(ctx, seed, k) // warms the pool and the Woodbury cache
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Fallback != want {
			t.Fatalf("stats %+v, want fallback %q", res.Stats, want)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := d.QueryTopKCtx(ctx, seed, k); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perOp := (after.TotalAlloc - before.TotalAlloc) / runs
		if limit := uint64(g.N() * 8 / 4); perOp >= limit {
			t.Fatalf("fallback %q allocates %d B/op, want < %d (a quarter of one score vector)", want, perOp, limit)
		}
		t.Logf("fallback %q: %d B/op", want, perOp)
	}
	t.Run("no_threshold", func(t *testing.T) {
		d, err := NewDynamic(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		measure(t, d, 100, 50, TopKFallbackNoThreshold)
	})
	t.Run("pending_updates", func(t *testing.T) {
		d, err := NewDynamic(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.AddEdge(200, 3, 1); err != nil {
			t.Fatal(err)
		}
		measure(t, d, 100, 10, TopKFallbackPending)
	})
}

// TestSchurWindowMatchesFullProducts is the Schur stage's contract: the
// windowed triangular products return r₂ bit for bit as the full products
// do, on every fixture and index variant, for unit seeds at widths
// {1, 2, 3, 4, 5, 8} and for dense right-hand sides. Each windowed
// product is also checked on its own, where mulNonzero's width rule runs
// the full one for that input.
func TestSchurWindowMatchesFullProducts(t *testing.T) {
	for gname, g := range testGraphs(2) {
		for oname, opts := range distOptionSets {
			t.Run(gname+"/"+oname, func(t *testing.T) {
				p, err := Preprocess(g, opts)
				if err != nil {
					t.Fatalf("Preprocess: %v", err)
				}
				if p.N2 == 0 {
					t.Skip("no hubs")
				}
				rng := rand.New(rand.NewSource(9))
				for _, nb := range []int{1, 2, 3, 4, 5, 8} {
					pos := make([]int, nb)
					for k := range pos {
						pos[k] = p.Perm[rng.Intn(p.N)]
					}
					// The forward stage needs same-block seeds adjacent.
					slices.SortFunc(pos, func(a, b int) int { return p.blockKey(a) - p.blockKey(b) })
					checkSchurWindow(t, p, fmt.Sprintf("nb=%d seeds %v", nb, pos), nb, pos, func(ws *Workspace) {
						p.loadSeeds(ws, pos, 1)
					})
				}
				for trial := 0; trial < 3; trial++ {
					b := make([]float64, p.N)
					for i := range b {
						if rng.Intn(3) == 0 {
							b[i] = rng.Float64()
						}
					}
					checkSchurWindow(t, p, fmt.Sprintf("dense trial %d", trial), 1, nil, func(ws *Workspace) {
						p.loadDense(ws, b)
					})
				}
			})
		}
	}
}

// checkSchurWindow runs the forward stage on the right-hand sides load
// puts in a workspace nb columns wide, then compares schur's r₂ with
// L₂⁻¹ and U₂⁻¹ applied in full.
func checkSchurWindow(t *testing.T, p *Precomputed, what string, nb int, pos []int, load func(*Workspace)) {
	t.Helper()
	// A workspace of its own: the batch pool holds only the batch width.
	ws := &Workspace{
		nb:   nb,
		full: make([]float64, p.N*nb),
		s1a:  make([]float64, p.N1*nb),
		s1b:  make([]float64, p.N1*nb),
		s2a:  make([]float64, p.N2*nb),
		s2b:  make([]float64, p.N2*nb),
	}
	load(ws)
	h := p.forward(ws, nb, pos)
	n1, n2 := p.N1, p.N2
	y := make([]float64, n2*nb)
	for i := range y {
		y[i] = ws.full[n1*nb+i] - h[i]
	}
	if p.SPerm != nil {
		py := make([]float64, n2*nb)
		for i, src := range p.SPerm {
			copy(py[i*nb:(i+1)*nb], y[src*nb:(src+1)*nb])
		}
		y = py
	}
	w := make([]float64, n2*nb)
	p.kern.l2inv.Mul(w, y, nb)
	want := make([]float64, n2*nb)
	p.kern.u2inv.Mul(want, w, nb)

	lo, hi := nonzeroWindow(y, nb)
	win := make([]float64, n2*nb)
	p.kern.l2inv.MulCols(win, y, nb, lo, hi)
	sameBits(t, fmt.Sprintf("%s: L₂⁻¹ over rows [%d,%d)", what, lo, hi), win, w)
	lo, hi = nonzeroWindow(w, nb)
	p.kern.u2inv.MulCols(win, w, nb, lo, hi)
	sameBits(t, fmt.Sprintf("%s: U₂⁻¹ over rows [%d,%d)", what, lo, hi), win, want)

	got := p.schur(ws, nb, h)
	sameBits(t, what+": windowed r₂ vs full products", got, want)
}
