package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"bear/internal/graph"
)

// Fallback reasons recorded in TopKStats.Fallback when a top-k query ran
// the full solve instead of the block-pruned one.
const (
	// TopKFallbackPending: pending dynamic updates are answered through
	// the Woodbury correction, which only the full solve applies.
	TopKFallbackPending = "pending_updates"
	// TopKFallbackNoThreshold: k exceeds the scores the block-pruned solve
	// knows before pruning starts (the n₂ hubs plus the seed's block), so
	// no k-th best score θ exists to prune against and every spoke block
	// with a nonzero bound would be ordered and solved. It catches k ≥ n
	// too, unless the hubs and the seed's block are the whole graph, and
	// then the block-pruned solve computes every score anyway.
	TopKFallbackNoThreshold = "no_threshold"
)

// TopKStats reports how a top-k query was answered.
type TopKStats struct {
	// Fallback names why the full solve ran; empty when the block-pruned
	// solve answered.
	Fallback string
	// BlocksSolved and BlocksSkipped count spoke blocks whose back
	// substitution ran or was certifiably skipped by the block-pruned
	// solve (both zero when the full solve ran).
	BlocksSolved  int
	BlocksSkipped int
}

// TopKResult is the answer to a top-k query. Nodes is TopK over the full
// exact solve and Scores holds those nodes' exact scores, bit-identical
// whichever solve answered.
type TopKResult struct {
	Nodes  []int
	Scores []float64
	Stats  TopKStats
}

// QueryTopK is QueryTopKCtx with a background context.
func (d *Dynamic) QueryTopK(seed, k int) (*TopKResult, error) {
	return d.QueryTopKCtx(context.Background(), seed, k)
}

// QueryTopKCtx returns the k nodes with the highest exact RWR scores for
// seed on the current graph: QueryDistTopKCtx for the unit distribution on
// seed, bit-identical to TopK over Query(seed).
func (d *Dynamic) QueryTopKCtx(ctx context.Context, seed, k int) (*TopKResult, error) {
	nodes, weights := [1]int{seed}, [1]float64{1}
	return d.QueryDistTopKCtx(ctx, nodes[:], weights[:], k)
}

// QueryDistTopKCtx returns the k nodes with the highest exact scores for
// the starting distribution that puts weights[i] on nodes[i] and zero on
// every other node, on the current graph. Nodes must be distinct, weights
// finite and non-negative. The answer is bit-identical, nodes, order and
// scores, to TopK over QueryDist of that distribution as a dense vector,
// yet it is found without back-substituting every spoke block when a
// certified bound shows it cannot matter.
//
// The block-pruned solve computes hub scores and the scores of the blocks
// holding the distribution exactly, gives every other spoke block a
// certified upper bound on its best attainable score, and
// back-substitutes only blocks whose bound can still reach rank k
// (Lemma 1's block restriction, driven by the bound instead of structural
// zeros). A distribution whose blocks are all isolated (no edge into the
// hubs) scores nothing outside them, so their scores are ranked directly,
// for any k. The full solve answers instead when updates are pending or
// when k exceeds the scores known before pruning starts, with the reason
// in Stats.Fallback; it solves into a pooled workspace, not a fresh
// n-length vector.
//
// Like the other query methods, the result reflects the graph state as of
// when the query began.
func (d *Dynamic) QueryDistTopKCtx(ctx context.Context, nodes []int, weights []float64, k int) (*TopKResult, error) {
	if len(nodes) != len(weights) {
		return nil, fmt.Errorf("core: %d nodes but %d weights", len(nodes), len(weights))
	}
	for i, v := range nodes {
		if v < 0 || v >= d.n {
			return nil, fmt.Errorf("core: seed %d out of range [0,%d)", v, d.n)
		}
		if w := weights[i]; w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("core: weight %g for node %d; must be finite and non-negative", w, v)
		}
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: top-k size %d must be positive", k)
	}
	d.mu.RLock()
	p := d.p
	pending := len(d.dirty) > 0
	d.mu.RUnlock()
	var supBuf [1]supportEntry
	sup, err := p.supportOf(supBuf[:0], nodes, weights)
	if err != nil {
		return nil, err
	}
	var blockBuf [1]int
	blocks, isolated := p.supportBlocks(blockBuf[:0], sup)

	var st TopKStats
	switch {
	case pending:
		st.Fallback = TopKFallbackPending
	case isolated:
		ws := p.AcquireWorkspace()
		top, scores, err := p.solveIsolatedTopKCtx(ctx, sup, blocks, k, ws)
		p.ReleaseWorkspace(ws)
		if err != nil {
			return nil, err
		}
		st.BlocksSolved, st.BlocksSkipped = len(blocks), len(p.Blocks)-len(blocks)
		return &TopKResult{Nodes: top, Scores: scores, Stats: st}, nil
	case k > p.topKKnown(blocks):
		st.Fallback = TopKFallbackNoThreshold
	default:
		// pending was false at entry, so p factors exactly the graph this
		// query promises to reflect.
		ws := p.AcquireWorkspace()
		top, scores, solved, skipped, err := p.solveTopKCtx(ctx, sup, blocks, k, ws)
		p.ReleaseWorkspace(ws)
		if err != nil {
			return nil, err
		}
		st.BlocksSolved, st.BlocksSkipped = solved, skipped
		return &TopKResult{Nodes: top, Scores: scores, Stats: st}, nil
	}

	top, scores, err := d.fullTopK(ctx, p, nodes, weights, k)
	if err != nil {
		return nil, err
	}
	return &TopKResult{Nodes: top, Scores: scores, Stats: st}, nil
}

// supportOf appends to sup the sparse right-hand side of the distribution
// that puts weights[i] on nodes[i]: its nonzero entries at p's internal
// positions, sorted by position. A node listed twice is an error.
func (p *Precomputed) supportOf(sup []supportEntry, nodes []int, weights []float64) ([]supportEntry, error) {
	for i, v := range nodes {
		sup = append(sup, supportEntry{p.Perm[v], weights[i]})
	}
	slices.SortFunc(sup, func(a, b supportEntry) int { return a.pos - b.pos })
	for i := 1; i < len(sup); i++ {
		if sup[i].pos == sup[i-1].pos {
			return nil, fmt.Errorf("core: node %d listed twice", p.InvPerm[sup[i].pos])
		}
	}
	return slices.DeleteFunc(sup, func(e supportEntry) bool { return e.w == 0 }), nil
}

// fullTopK answers a top-k query with the full solve: the distribution is
// written densely into a pooled workspace's right-hand-side buffer,
// QueryDistToCtx solves it there in place (its one-nonzero dispatch gives
// a unit seed QueryToCtx's bits), and TopK ranks it.
func (d *Dynamic) fullTopK(ctx context.Context, p *Precomputed, nodes []int, weights []float64, k int) ([]int, []float64, error) {
	ws := p.AcquireWorkspace()
	defer p.ReleaseWorkspace(ws)
	q := ws.full[:d.n]
	clear(q)
	for i, v := range nodes {
		q[v] = weights[i]
	}
	if err := d.QueryDistToCtx(ctx, q, q); err != nil {
		return nil, nil, err
	}
	heap := newTopKHeap(q, k)
	heap.scan(nil)
	top, scores := heap.ranked(true)
	return top, scores, nil
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
	return topKFiltered(scores, k, func(v int) bool { return notCandidate(out, seed, v) })
}

// notCandidate reports whether v is excluded from seed's link-prediction
// candidates: it is the seed or one of its out-neighbors out (sorted).
func notCandidate(out []int, seed, v int) bool {
	if v == seed {
		return true
	}
	i := sort.SearchInts(out, v)
	return i < len(out) && out[i] == v
}

// QueryCandidatesCtx ranks seed's link-prediction candidates on the
// current graph: the k highest-scoring nodes that are neither the seed
// nor among its out-neighbors, with their exact RWR scores. It asks
// QueryTopKCtx for k + 1 + outdeg(seed) nodes and drops the excluded ones
// with TopKCandidates' predicate, so the answer is bit-identical to
// TopKCandidates over Query(seed), without an n-length score vector.
// Stats are the top-k query's.
func (d *Dynamic) QueryCandidatesCtx(ctx context.Context, seed, k int) (*TopKResult, error) {
	if err := d.checkSeed(seed); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: top-k size %d must be positive", k)
	}
	d.mu.RLock()
	out, _ := d.curRowLocked(seed) // rows are immutable once installed
	d.mu.RUnlock()
	res, err := d.QueryTopKCtx(ctx, seed, min(min(k, d.n)+1+len(out), d.n))
	if err != nil {
		return nil, err
	}
	kept := 0
	for i, v := range res.Nodes {
		if kept == k {
			break
		}
		if notCandidate(out, seed, v) {
			continue
		}
		res.Nodes[kept], res.Scores[kept] = v, res.Scores[i]
		kept++
	}
	res.Nodes, res.Scores = res.Nodes[:kept], res.Scores[:kept]
	return res, nil
}
