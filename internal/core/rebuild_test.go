package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"bear/internal/graph"
	"bear/internal/graph/gen"
	"bear/internal/sparse"
)

// csrBitsEqual compares pattern and value bits exactly (no tolerance):
// the incremental rebuild promises bit-identity with a pinned-ordering
// full re-factorization, not merely numerical closeness.
func csrBitsEqual(a, b *sparse.CSR) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.R != b.R || a.C != b.C || a.NNZ() != b.NNZ() {
		return false
	}
	for i := 0; i <= a.R; i++ {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] || a.Val[k] != b.Val[k] {
			return false
		}
	}
	return true
}

// pinnedFullPrecomputed re-runs the whole factorization of snap under
// old's retained ordering and partition — H₁₁ factored and inverted as one
// matrix, the Schur complement assembled and factored from scratch, no
// fresh SlashBurn and no hub re-reorder (both are already folded into
// old.Perm). This is the oracle the incremental rebuild must match
// bit-for-bit. It is written with whole-matrix sparse.LU and sparse.Mul,
// not the preprocessing stages, so it stays independent of the code it
// checks: Lemma 1 makes the whole-matrix factors equal the per-block ones.
// The options argument is unused: an index that rebuilds incrementally is
// exact and row-normalized, and old carries c.
func pinnedFullPrecomputed(t *testing.T, snap *graph.Graph, old *Precomputed, _ Options) *Precomputed {
	t.Helper()
	n, n1 := old.N, old.N1
	h := snap.HMatrixCSC(old.C, false)
	hp := h.Permute(old.Perm, old.Perm)
	h11 := hp.Submatrix(0, n1, 0, n1)
	h12 := hp.Submatrix(0, n1, n1, n).ToCSR()
	h21 := hp.Submatrix(n1, n, 0, n1).ToCSR()
	h22 := hp.Submatrix(n1, n, n1, n).ToCSR()

	l1inv, u1inv := wholeLUInverse(t, h11)
	t2 := sparse.Mul(u1inv, sparse.Mul(l1inv, h12))
	s := sparse.Sub(h22, sparse.Mul(h21, t2)).Prune()
	l2inv, u2inv, sperm, err := factorSchur(s, denseSchurCutoff)
	if err != nil {
		t.Fatalf("pinned full rebuild: factoring Schur complement: %v", err)
	}

	p2 := &Precomputed{
		N: n, N1: n1, N2: old.N2, C: old.C,
		Blocks:    old.Blocks,
		Perm:      old.Perm,
		InvPerm:   old.InvPerm,
		L1Inv:     l1inv,
		U1Inv:     u1inv,
		H12:       h12,
		H21:       h21,
		L2Inv:     l2inv,
		U2Inv:     u2inv,
		SPerm:     sperm,
		OutDegree: weightedOutDegrees(snap),
		incr:      &rebuildCache{t2: t2, h22: h22},
	}
	p2.finish()
	return p2
}

// applyEligibleChurn applies fraction×n random spoke-only updates that the
// incremental path must accept: weight perturbations, edge removals, new
// edges to hubs, new edges within the spoke's own block, and empty rows
// gaining their first edge. Returns the updated node ids.
func applyEligibleChurn(t *testing.T, rng *rand.Rand, d *Dynamic, fraction float64) []int {
	t.Helper()
	p := d.Precomputed()
	var spokes, hubs []int
	for u := 0; u < p.N; u++ {
		if p.IsHub(u) {
			hubs = append(hubs, u)
		} else {
			spokes = append(spokes, u)
		}
	}
	want := int(fraction * float64(p.N))
	if want < 1 {
		want = 1
	}
	var touched []int
	for _, u := range rng.Perm(len(spokes)) {
		if len(touched) >= want {
			break
		}
		node := spokes[u]
		dst, w := d.Graph().Out(node)
		switch op := rng.Intn(4); {
		case op == 0 && len(dst) > 0: // perturb every weight
			nw := make([]float64, len(w))
			for i, x := range w {
				nw[i] = x * (0.5 + rng.Float64())
			}
			nd := append([]int(nil), dst...)
			if err := d.UpdateNode(node, nd, nw); err != nil {
				t.Fatalf("UpdateNode(%d): %v", node, err)
			}
		case op == 1 && len(dst) > 1: // drop one edge
			if err := d.RemoveEdge(node, dst[rng.Intn(len(dst))]); err != nil {
				t.Fatalf("RemoveEdge(%d): %v", node, err)
			}
		case op == 2 && len(hubs) > 0: // new or reweighted edge to a hub
			if err := d.AddEdge(node, hubs[rng.Intn(len(hubs))], 1+rng.Float64()); err != nil {
				t.Fatalf("AddEdge(%d, hub): %v", node, err)
			}
		default: // new or reweighted edge inside the node's own block
			b := p.BlockOf(node)
			var mate int = -1
			for _, tries := 0, 0; tries < 50; tries++ {
				v := spokes[rng.Intn(len(spokes))]
				if p.BlockOf(v) == b {
					mate = v
					break
				}
			}
			if mate < 0 {
				continue
			}
			if err := d.AddEdge(node, mate, 1+rng.Float64()); err != nil {
				t.Fatalf("AddEdge(%d, %d): %v", node, mate, err)
			}
		}
		touched = append(touched, node)
	}
	if len(touched) == 0 {
		t.Fatal("applyEligibleChurn made no updates")
	}
	return touched
}

// TestIncrementalRebuildBitIdentical is the equivalence property test:
// random graphs × random spoke-only churn patterns → the incremental
// rebuild's matrices and query results are bit-identical to a full
// re-factorization of the same materialized graph under the same
// ordering.
func TestIncrementalRebuildBitIdentical(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat", gen.RMAT(gen.NewRMATPul(300, 1800, 0.7, 60))},
		{"ba", gen.BarabasiAlbert(200, 2, 61)},
		{"er", gen.ErdosRenyi(150, 900, 62)},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(63))
			d, err := NewDynamic(tc.g, Options{K: 2, KeepH: true})
			if err != nil {
				t.Fatalf("NewDynamic: %v", err)
			}
			for round := 0; round < 3; round++ {
				applyEligibleChurn(t, rng, d, 0.05)
				snap := d.Graph()
				pinned := pinnedFullPrecomputed(t, snap, d.Precomputed(), d.Options())

				rep, err := d.RebuildCtx(context.Background(), RebuildIncremental)
				if err != nil {
					t.Fatalf("round %d: incremental rebuild: %v", round, err)
				}
				if rep.Mode != RebuildIncremental || rep.FallbackReason != "" {
					t.Fatalf("round %d: mode=%s fallback=%q, want incremental with no fallback",
						round, rep.Mode, rep.FallbackReason)
				}
				if rep.BlocksRefactored < 1 || rep.BlocksRefactored > rep.TotalBlocks {
					t.Fatalf("round %d: refactored %d of %d blocks", round, rep.BlocksRefactored, rep.TotalBlocks)
				}

				got := d.Precomputed()
				for name, pair := range map[string][2]*sparse.CSR{
					"L1Inv": {got.L1Inv, pinned.L1Inv},
					"U1Inv": {got.U1Inv, pinned.U1Inv},
					"H12":   {got.H12, pinned.H12},
					"H21":   {got.H21, pinned.H21},
					"L2Inv": {got.L2Inv, pinned.L2Inv},
					"U2Inv": {got.U2Inv, pinned.U2Inv},
					"t2":    {got.incr.t2, pinned.incr.t2},
				} {
					if !csrBitsEqual(pair[0], pair[1]) {
						t.Fatalf("round %d: %s differs from pinned full rebuild", round, name)
					}
				}
				if (got.SPerm == nil) != (pinned.SPerm == nil) {
					t.Fatalf("round %d: SPerm presence differs", round)
				}
				for i := range got.SPerm {
					if got.SPerm[i] != pinned.SPerm[i] {
						t.Fatalf("round %d: SPerm[%d] differs", round, i)
					}
				}
				// The retained exact H must track the new graph bit-for-bit:
				// it is what Residual and refinement measure against.
				wantH := snap.HMatrixCSC(got.C, false).Permute(got.Perm, got.Perm).ToCSR()
				if !csrBitsEqual(got.H, wantH) {
					t.Fatalf("round %d: patched H differs from rebuilt H", round)
				}

				for _, seed := range []int{0, 7, got.N - 1} {
					a, err := got.Query(seed)
					if err != nil {
						t.Fatalf("round %d: query after incremental rebuild: %v", round, err)
					}
					b, err := pinned.Query(seed)
					if err != nil {
						t.Fatalf("round %d: pinned query: %v", round, err)
					}
					for i := range a {
						if a[i] != b[i] {
							t.Fatalf("round %d: query(%d)[%d] = %x, pinned %x", round, seed, i, a[i], b[i])
						}
					}
				}
				// And against ground truth — a from-scratch preprocessing of
				// the same graph (fresh SlashBurn, so only numerically close).
				r, err := d.Query(11 % got.N)
				if err != nil {
					t.Fatalf("round %d: dynamic query: %v", round, err)
				}
				if diff := maxAbsDiff(r, freshSolve(t, snap, 11%got.N)); diff > 1e-9 {
					t.Fatalf("round %d: incremental rebuild drifted %g from fresh preprocess", round, diff)
				}
			}
		})
	}
}

// TestIncrementalRebuildFallbacks drives every disqualifying churn
// pattern through auto mode and asserts the recorded fallback reason, and
// that explicit incremental mode refuses with the same reason.
func TestIncrementalRebuildFallbacks(t *testing.T) {
	newDyn := func(t *testing.T, opts Options) *Dynamic {
		t.Helper()
		d, err := NewDynamic(gen.RMAT(gen.NewRMATPul(200, 1200, 0.7, 64)), opts)
		if err != nil {
			t.Fatalf("NewDynamic: %v", err)
		}
		return d
	}
	findHub := func(d *Dynamic) int {
		p := d.Precomputed()
		for u := 0; u < p.N; u++ {
			if p.IsHub(u) {
				return u
			}
		}
		t.Fatal("graph has no hubs")
		return -1
	}
	findCrossBlockPair := func(d *Dynamic) (int, int) {
		p := d.Precomputed()
		for u := 0; u < p.N; u++ {
			if bu := p.BlockOf(u); bu >= 0 {
				for v := 0; v < p.N; v++ {
					if bv := p.BlockOf(v); bv >= 0 && bv != bu {
						return u, v
					}
				}
			}
		}
		t.Skip("graph has fewer than two blocks")
		return -1, -1
	}
	dirtySpoke := func(t *testing.T, d *Dynamic) {
		t.Helper()
		p := d.Precomputed()
		for u := 0; u < p.N; u++ {
			if !p.IsHub(u) {
				if err := d.AddEdge(u, findHub(d), 1.5); err != nil {
					t.Fatalf("AddEdge: %v", err)
				}
				return
			}
		}
	}

	cases := []struct {
		name   string
		setup  func(t *testing.T) *Dynamic
		reason string
	}{
		{"no_pending", func(t *testing.T) *Dynamic {
			return newDyn(t, Options{K: 2})
		}, FallbackNoPending},
		{"drop_tol", func(t *testing.T) *Dynamic {
			d := newDyn(t, Options{K: 2, DropTol: 1e-6})
			dirtySpoke(t, d)
			return d
		}, FallbackDropTol},
		{"laplacian", func(t *testing.T) *Dynamic {
			d := newDyn(t, Options{K: 2, Laplacian: true})
			dirtySpoke(t, d)
			return d
		}, FallbackLaplacian},
		{"hub_dirty", func(t *testing.T) *Dynamic {
			d := newDyn(t, Options{K: 2})
			u := findHub(d)
			if err := d.AddEdge(u, (u+1)%d.Precomputed().N, 1.5); err != nil {
				t.Fatalf("AddEdge: %v", err)
			}
			return d
		}, FallbackHubDirty},
		{"cross_block", func(t *testing.T) *Dynamic {
			d := newDyn(t, Options{K: 2})
			u, v := findCrossBlockPair(d)
			if err := d.AddEdge(u, v, 1.5); err != nil {
				t.Fatalf("AddEdge: %v", err)
			}
			return d
		}, FallbackCrossBlock},
		{"churn", func(t *testing.T) *Dynamic {
			d := newDyn(t, Options{K: 2})
			d.SetRebuildPolicy(RebuildPolicy{MaxChurnFraction: 1e-9})
			dirtySpoke(t, d)
			return d
		}, FallbackChurn},
		{"fill_ratio", func(t *testing.T) *Dynamic {
			d := newDyn(t, Options{K: 2})
			d.SetRebuildPolicy(RebuildPolicy{MaxFillRatio: 1e-9})
			dirtySpoke(t, d)
			return d
		}, FallbackFillRatio},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.setup(t)
			if tc.reason != FallbackNoPending {
				// Explicit incremental refuses, naming the reason …
				if _, err := d.RebuildCtx(context.Background(), RebuildIncremental); err == nil {
					t.Fatal("explicit incremental rebuild did not refuse")
				} else if !strings.Contains(err.Error(), tc.reason) {
					t.Fatalf("refusal %q does not name reason %q", err, tc.reason)
				}
			}
			// … and auto falls back to a full pass, recording it.
			rep, err := d.RebuildCtx(context.Background(), RebuildAuto)
			if err != nil {
				t.Fatalf("auto rebuild: %v", err)
			}
			if rep.Mode != RebuildFull || rep.FallbackReason != tc.reason {
				t.Fatalf("auto rebuild ran %s with fallback %q, want full with %q",
					rep.Mode, rep.FallbackReason, tc.reason)
			}
			if got, ok := d.LastRebuild(); !ok || got.FallbackReason != tc.reason {
				t.Fatalf("LastRebuild = %+v, %v; want recorded fallback %q", got, ok, tc.reason)
			}
			if d.PendingNodes() != 0 {
				t.Fatalf("fallback full rebuild left %d pending nodes", d.PendingNodes())
			}
		})
	}
}

// TestIncrementalRebuildNoPendingNoOp: explicitly requesting an
// incremental rebuild with nothing dirty is a recorded no-op, not a
// hidden full pass.
func TestIncrementalRebuildNoPendingNoOp(t *testing.T) {
	d, err := NewDynamic(gen.ErdosRenyi(80, 400, 65), Options{K: 2})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	oldP := d.Precomputed()
	epoch := d.Epoch()
	rep, err := d.RebuildCtx(context.Background(), RebuildIncremental)
	if err != nil {
		t.Fatalf("RebuildCtx: %v", err)
	}
	if rep.Mode != RebuildIncremental || rep.BlocksRefactored != 0 {
		t.Fatalf("empty incremental rebuild reported %+v", rep)
	}
	if d.Precomputed() != oldP || d.Epoch() != epoch {
		t.Fatal("empty incremental rebuild replaced state")
	}
}

// TestIncrementalRebuildStatsMatchPreprocess: after incremental rebuilds,
// with and without the retained exact H, Stats.NNZH and Stats.M are what
// a fresh Preprocess of the same graph reports.
func TestIncrementalRebuildStatsMatchPreprocess(t *testing.T) {
	for _, keepH := range []bool{false, true} {
		rng := rand.New(rand.NewSource(69))
		d, err := NewDynamic(gen.RMAT(gen.NewRMATPul(300, 1800, 0.7, 60)), Options{K: 2, KeepH: keepH})
		if err != nil {
			t.Fatalf("NewDynamic: %v", err)
		}
		for round := 0; round < 2; round++ {
			applyEligibleChurn(t, rng, d, 0.05)
			if _, err := d.RebuildCtx(context.Background(), RebuildIncremental); err != nil {
				t.Fatalf("KeepH=%v round %d: incremental rebuild: %v", keepH, round, err)
			}
			fresh, err := Preprocess(d.Graph(), Options{K: 2})
			if err != nil {
				t.Fatalf("Preprocess: %v", err)
			}
			got, want := d.Precomputed().Stats, fresh.Stats
			if got.NNZH != want.NNZH || got.M != want.M {
				t.Fatalf("KeepH=%v round %d: NNZH=%d M=%d, fresh Preprocess reads NNZH=%d M=%d",
					keepH, round, got.NNZH, got.M, want.NNZH, want.M)
			}
		}
	}
}

// TestAutoRebuildAfterLoadFallsBackOnce: the Schur-assembly cache is
// derived state and never serialized, so the first auto rebuild of a
// loaded index records no_cache, runs full, and repopulates the cache —
// after which incremental rebuilds work again.
func TestAutoRebuildAfterLoadFallsBackOnce(t *testing.T) {
	d, err := NewDynamic(gen.RMAT(gen.NewRMATPul(200, 1200, 0.7, 66)), Options{K: 2})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	var buf strings.Builder
	if err := d.SaveState(&buf); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	d2, err := LoadDynamic(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("LoadDynamic: %v", err)
	}
	rng := rand.New(rand.NewSource(67))
	applyEligibleChurn(t, rng, d2, 0.02)
	rep, err := d2.RebuildCtx(context.Background(), RebuildAuto)
	if err != nil {
		t.Fatalf("first rebuild after load: %v", err)
	}
	if rep.Mode != RebuildFull || rep.FallbackReason != FallbackNoCache {
		t.Fatalf("first rebuild after load: mode=%s fallback=%q, want full/no_cache", rep.Mode, rep.FallbackReason)
	}
	applyEligibleChurn(t, rng, d2, 0.02)
	rep, err = d2.RebuildCtx(context.Background(), RebuildAuto)
	if err != nil {
		t.Fatalf("second rebuild after load: %v", err)
	}
	if rep.Mode != RebuildIncremental {
		t.Fatalf("second rebuild after load: mode=%s fallback=%q, want incremental", rep.Mode, rep.FallbackReason)
	}
}

// TestIncrementalRebuildCancellation: a cancelled context aborts the
// incremental path with the old state intact.
func TestIncrementalRebuildCancellation(t *testing.T) {
	d, err := NewDynamic(gen.RMAT(gen.NewRMATPul(200, 1200, 0.7, 68)), Options{K: 2})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	applyEligibleChurn(t, rand.New(rand.NewSource(69)), d, 0.02)
	oldP := d.Precomputed()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.RebuildCtx(ctx, RebuildIncremental); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled incremental rebuild returned %v, want context.Canceled", err)
	}
	if d.Precomputed() != oldP {
		t.Fatal("cancelled incremental rebuild swapped in new matrices")
	}
	if d.RebuildInProgress() {
		t.Fatal("rebuilding flag stuck after cancelled incremental rebuild")
	}
}
