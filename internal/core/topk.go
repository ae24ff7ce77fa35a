package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"bear/internal/graph"
	"bear/internal/rwr"
	"bear/internal/sparse"
)

// Fallback reasons recorded in TopKStats.Fallback when a hybrid top-k
// query ran the full exact solve instead of certifying from push bounds.
const (
	// TopKFallbackApprox: the index drops factor entries (DropTol > 0), so
	// the exact scores the bound would be certified against do not exist.
	TopKFallbackApprox = "approx_index"
	// TopKFallbackLaplacian: under the Laplacian normalization the push
	// invariant's [0,1] score bound does not hold.
	TopKFallbackLaplacian = "laplacian"
	// TopKFallbackPending: pending dynamic updates mean the cached
	// normalized adjacency and the Woodbury-corrected solve disagree about
	// the current graph; the exact path handles the correction.
	TopKFallbackPending = "pending_updates"
	// TopKFallbackAllNodes: k covers every node, so there is no rank k+1 to
	// separate from and nothing to prune.
	TopKFallbackAllNodes = "k_covers_graph"
	// TopKFallbackUncertified: the push bound could not separate rank k
	// from rank k+1 within the round and push budgets (small gap, boundary
	// tie, or residual mass that would not shrink). Such queries are now
	// answered by the block-pruned exact solve rather than the full one,
	// so this reason no longer appears in Stats.Fallback; the constant is
	// retained for callers that match on it.
	TopKFallbackUncertified = "bound_not_separating"
)

// TopKStats reports how a hybrid top-k query was answered.
type TopKStats struct {
	// Pruned is true when the result was certified from local-push bounds
	// alone and the exact block-elimination solve was skipped.
	Pruned bool
	// Fallback names why the exact solve ran; empty when Pruned.
	Fallback string
	// Rounds counts push threshold tightenings attempted (0 when the push
	// phase was skipped entirely).
	Rounds int
	// Pushes counts push operations performed across all rounds.
	Pushes int
	// Residual is the unsettled probability mass R when the push phase
	// stopped; every exact score lies within [estimate, estimate+R].
	Residual float64
	// BlocksSolved and BlocksSkipped count spoke blocks whose back
	// substitution ran or was certifiably skipped by the block-pruned
	// exact path (both zero when push certified or a full solve ran).
	BlocksSolved  int
	BlocksSkipped int
}

// TopKResult is the answer to a hybrid top-k query.
type TopKResult struct {
	// Nodes holds the top-k node ids. The *set* is always identical to
	// TopK(exact scores, k); the order within the set is by exact score
	// when Stats.Pruned is false, and by push estimate (which may deviate
	// from the exact order by at most Stats.Residual) when it is true.
	Nodes []int
	// Scores holds the score of each node in Nodes: exact when
	// Stats.Pruned is false, certified lower bounds within Stats.Residual
	// of exact when it is true.
	Scores []float64
	Stats  TopKStats
}

// topKPushRounds bounds threshold tightenings before giving up on
// certification; each round shrinks the threshold by up to 64×, so the
// total dynamic range is ~64¹⁰ — far below any gap float64 can represent.
const topKPushRounds = 10

// topKCtxCheckPushes is the push-count granularity at which Run is sliced
// so cancellation is honored during long drains.
const topKCtxCheckPushes = 1 << 17

// topKPushStrikes is how many consecutive uncertified push attempts on
// one matrix it takes before the push phase is skipped for that matrix
// (see Dynamic.pushStrikes).
const topKPushStrikes = 3

// QueryTopK is QueryTopKCtx with a background context.
func (d *Dynamic) QueryTopK(seed, k int) (*TopKResult, error) {
	return d.QueryTopKCtx(context.Background(), seed, k)
}

// QueryTopKCtx returns the k nodes with the highest exact RWR scores for
// seed on the current graph, without computing the full exact solve when a
// cheaper certificate exists. It first runs a budgeted forward local push,
// whose invariant brackets every exact score as
//
//	p[v] ≤ exact[v] ≤ p[v] + R,   R = total residual mass,
//
// and tightens the push threshold until the k-th estimate exceeds the
// (k+1)-th by more than R — at which point every retained node provably
// outscores every excluded node and the estimate top-k *set* equals the
// exact top-k set, regardless of tie-breaking. When push cannot certify
// within its budget, the query runs the block-pruned exact solve: hub and
// seed-block scores are computed exactly, every other spoke block gets a
// certified upper bound on its best attainable score, and only blocks
// whose bound can still reach rank k are back-substituted (Lemma 1's
// block restriction, driven by the bound instead of structural zeros).
// Both routes provably return the identical top-k set as TopK(full exact
// solve, k); ineligible configurations (approximate index, Laplacian
// normalization, pending updates, k covering the whole graph) fall back
// to the full solve with the reason in Stats.Fallback.
//
// Like the other query methods, the result reflects the graph state as of
// when the query began; Stats records which path answered.
func (d *Dynamic) QueryTopKCtx(ctx context.Context, seed, k int) (*TopKResult, error) {
	d.mu.RLock()
	p := d.p
	n := p.N
	c := p.C
	opts := d.opts
	pending := len(d.dirty) > 0
	g := d.curCache
	d.mu.RUnlock()
	if seed < 0 || seed >= n {
		return nil, fmt.Errorf("core: seed %d out of range [0,%d)", seed, n)
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: top-k size %d must be positive", k)
	}

	var st TopKStats
	switch {
	case opts.Laplacian:
		st.Fallback = TopKFallbackLaplacian
	case opts.DropTol > 0:
		st.Fallback = TopKFallbackApprox
	case pending:
		st.Fallback = TopKFallbackPending
	case k >= n:
		st.Fallback = TopKFallbackAllNodes
	}
	if st.Fallback == "" {
		if g == nil {
			g = d.Graph()
		}
		res, pst, err := d.pushTopK(ctx, g, c, seed, k)
		if err != nil {
			return nil, err
		}
		if res != nil {
			return res, nil
		}
		st = pst
		// Push could not certify: run the block-pruned exact solve against
		// the index snapshot captured at entry (pending was false there, so
		// p factors exactly the graph this query promises to reflect).
		ws := p.AcquireWorkspace()
		nodes, scores, solved, skipped, err := p.solveSeedTopKCtx(ctx, seed, k, ws)
		p.ReleaseWorkspace(ws)
		if err != nil {
			return nil, err
		}
		st.BlocksSolved, st.BlocksSkipped = solved, skipped
		return &TopKResult{Nodes: nodes, Scores: scores, Stats: st}, nil
	}

	scores := make([]float64, n)
	if err := d.QueryToCtx(ctx, scores, seed); err != nil {
		return nil, err
	}
	nodes := TopK(scores, k)
	top := make([]float64, len(nodes))
	for i, v := range nodes {
		top[i] = scores[v]
	}
	return &TopKResult{Nodes: nodes, Scores: top, Stats: st}, nil
}

// pushTopK attempts to certify the top-k set from push bounds alone. It
// returns a non-nil result on success; (nil, stats, nil) means the bound
// did not separate and the caller should run the exact solve.
func (d *Dynamic) pushTopK(ctx context.Context, g *graph.Graph, c float64, seed, k int) (*TopKResult, TopKStats, error) {
	var st TopKStats
	a := d.normalized(g)
	d.mu.RLock()
	struck := d.pushStrikesFor == a && d.pushStrikes >= topKPushStrikes
	d.mu.RUnlock()
	if struck {
		return nil, st, nil
	}
	ps := d.pusher(a, c)
	defer d.pushers.Put(&pusherEntry{a: a, ps: ps})
	if err := ps.ResetSeed(seed); err != nil {
		return nil, st, err
	}
	// gapAt reads the certification gap from the current push state by
	// selecting the top-(k+1) estimates among touched nodes only — every
	// untouched node's estimate is exactly zero, so when fewer than k+1
	// nodes are touched the missing ranks belong to zero-estimate nodes.
	// Keeping the scan off the full score vector makes failed attempts
	// cost O(footprint), not O(N).
	gapAt := func() ([]int, float64) {
		est := ps.EstimatesRef()
		top := topKOver(est, k+1, ps.TouchedRef(), nil)
		switch {
		case len(top) < k:
			// The top k itself would include untouched zero-estimate
			// nodes; nothing separates those from each other yet.
			return top, 0
		case len(top) == k:
			// The (k+1)-th best estimate is an untouched node's zero.
			return top, est[top[k-1]]
		default:
			return top, est[top[k-1]] - est[top[k]]
		}
	}
	// The push attempt must stay cheap relative to the block-pruned exact
	// solve that follows when it fails: with restart c the residual decays
	// only as (1−c) per push wave, so certification is realistic on small
	// graphs and structurally separated seeds but hopeless in general. The
	// cap — a fraction of the edge count, floored so small fixtures can
	// still drain completely — bounds the failed-attempt tax to well under
	// one factor traversal; hitting it abandons certification.
	budget := (a.R + a.NNZ()) / 8
	if budget < 8192 {
		budget = 8192
	}
	// First threshold: a drained frontier at eps leaves at most
	// eps·(m + 2n) total residual, so this eps caps the first round's R
	// near 0.1 — coarse, but enough to read the gap and adapt.
	eps := 0.1 / float64(a.NNZ()+2*a.R)

	// A short probe bounds the tax of hopeless attempts: certification
	// needs the residual below the score gap, and a budgeted push's
	// residual decays roughly exponentially in pushes. The decay rate
	// observed over the probe prefix projects how many pushes reaching
	// the current gap would take; when that projection overshoots the
	// budget, the attempt is abandoned with only a small fraction of it
	// spent. The projection is optimistic (frontier growth slows decay
	// further), so a continue is never certain — but a bail is never a
	// correctness risk either: it only forfeits the push certificate and
	// hands the query to the block-pruned exact solve.
	probe := budget / 16
	if probe < 512 {
		probe = 512
	}
	probeDrained, err := ps.Run(eps, probe)
	if err != nil {
		return nil, st, err
	}
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	if !probeDrained {
		r := ps.ResidualMass()
		_, gap := gapAt()
		rate := math.Log(1/r) / float64(ps.Pushes())
		if gap <= 0 || rate <= 0 ||
			float64(ps.Pushes())+math.Log(r/gap)/rate > float64(budget) {
			st.Rounds, st.Pushes, st.Residual = 1, ps.Pushes(), r
			d.notePushOutcome(a, false)
			return nil, st, nil
		}
	}

	for round := 0; round < topKPushRounds; round++ {
		st.Rounds++
		drained := false
		for ps.Pushes() < budget {
			chunk := budget - ps.Pushes()
			if chunk > topKCtxCheckPushes {
				chunk = topKCtxCheckPushes
			}
			var err error
			drained, err = ps.Run(eps, chunk)
			if err != nil {
				return nil, st, err
			}
			if err := ctx.Err(); err != nil {
				return nil, st, err
			}
			if drained {
				break
			}
		}
		r := ps.ResidualMass()
		st.Pushes, st.Residual = ps.Pushes(), r
		// Inflate the bound by a hair so floating-point rounding in either
		// the push or the exact solve cannot flip a marginal certificate.
		rSafe := r + r*1e-9 + 1e-12
		top, gap := gapAt()
		if gap > rSafe {
			est := ps.EstimatesRef()
			nodes := append([]int(nil), top[:k]...)
			scores := make([]float64, k)
			for i, v := range nodes {
				scores[i] = est[v]
			}
			st.Pruned = true
			d.notePushOutcome(a, true)
			return &TopKResult{Nodes: nodes, Scores: scores, Stats: st}, st, nil
		}
		if !drained || r == 0 {
			// Budget exhausted, or nothing left to push (the remaining gap
			// is a genuine tie): tightening cannot help.
			d.notePushOutcome(a, false)
			return nil, st, nil
		}
		// Shrink the threshold toward the observed gap: R scales linearly
		// with eps once the frontier drains, so aiming R at gap/2 usually
		// certifies next round; the clamps keep progress steady when the
		// gap reading is degenerate.
		shrink := 0.5
		if gap > 0 {
			if s := gap / (2 * rSafe); s < shrink {
				shrink = s
			}
		}
		if shrink < 1.0/64 {
			shrink = 1.0 / 64
		}
		eps *= shrink
	}
	d.notePushOutcome(a, false)
	return nil, st, nil
}

// notePushOutcome records whether a push certification attempt against
// matrix a succeeded, maintaining the consecutive-failure strike count
// that adaptively disables the push phase (see Dynamic.pushStrikes).
func (d *Dynamic) notePushOutcome(a *sparse.CSR, certified bool) {
	d.mu.Lock()
	if certified || d.pushStrikesFor != a {
		d.pushStrikesFor, d.pushStrikes = a, 0
	}
	if !certified {
		d.pushStrikes++
	}
	d.mu.Unlock()
}

// normalized returns the row-normalized adjacency of g, caching it on the
// Dynamic keyed by graph identity (materialized graphs are immutable and
// cached per state, so pointer equality is exact). Repeated hybrid top-k
// queries between updates then share one normalization pass.
func (d *Dynamic) normalized(g *graph.Graph) *sparse.CSR {
	d.mu.RLock()
	if d.normFor == g {
		a := d.norm
		d.mu.RUnlock()
		return a
	}
	d.mu.RUnlock()
	a := g.Normalized()
	d.mu.Lock()
	// Install only if g still describes the current graph; a concurrent
	// update may have moved on, and its normalization must not be clobbered
	// by this stale one.
	if d.curCache == g {
		d.normFor, d.norm = g, a
	}
	d.mu.Unlock()
	return a
}

// pusherEntry pairs a pooled push engine with the normalized matrix it
// was built over; an engine is only reused while that matrix is still the
// current one, so stale engines retire naturally after graph updates.
type pusherEntry struct {
	a  *sparse.CSR
	ps *rwr.Pusher
}

// pusher returns a push engine over a, reusing a pooled one when its
// matrix still matches. The engine carries O(N) state whose reset cost is
// proportional to the previous query's footprint, so reuse turns a failed
// certification attempt's fixed cost from four length-N allocations into
// nothing. Callers must return the engine via d.pushers.Put.
func (d *Dynamic) pusher(a *sparse.CSR, c float64) *rwr.Pusher {
	if v := d.pushers.Get(); v != nil {
		if e := v.(*pusherEntry); e.a == a {
			return e.ps
		}
	}
	return rwr.NewPusher(a, c)
}

// TopKExcluding is TopK restricted to nodes for which skip returns false.
// Ranking semantics (descending score, ties by ascending id, NaN last) are
// identical to TopK; the result is shorter than k when fewer than k nodes
// survive the filter. A nil skip is TopK.
func TopKExcluding(scores []float64, k int, skip func(int) bool) []int {
	return topKFiltered(scores, k, skip)
}

// TopKCandidates ranks link-prediction candidates for seed: the top-k
// scored nodes excluding the seed itself and every node it already points
// at. This is the standard RWR candidate-selection step — recommending an
// existing neighbor is vacuous, so only new links are ranked.
func TopKCandidates(g *graph.Graph, scores []float64, seed, k int) []int {
	out, _ := g.Out(seed)
	return topKFiltered(scores, k, func(v int) bool {
		if v == seed {
			return true
		}
		i := sort.SearchInts(out, v)
		return i < len(out) && out[i] == v
	})
}
