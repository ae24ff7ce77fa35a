package core

import (
	"context"
	"fmt"
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
// seed on the current graph, without back-substituting every spoke block
// when a certified bound shows it cannot matter. The block-pruned solve
// computes hub and seed-block scores exactly, gives every other spoke
// block a certified upper bound on its best attainable score, and
// back-substitutes only blocks whose bound can still reach rank k
// (Lemma 1's block restriction, driven by the bound instead of structural
// zeros). A seed whose block is isolated (no edge into the hubs) scores
// nothing outside its block, so its block's scores are ranked directly,
// for any k. Either answer is bit-identical to TopK over the full solve,
// nodes, order and scores. The full solve answers instead when updates are
// pending or when k exceeds the scores known before pruning starts, with
// the reason in Stats.Fallback.
//
// Like the other query methods, the result reflects the graph state as of
// when the query began.
func (d *Dynamic) QueryTopKCtx(ctx context.Context, seed, k int) (*TopKResult, error) {
	d.mu.RLock()
	p := d.p
	pending := len(d.dirty) > 0
	d.mu.RUnlock()
	n := p.N
	if seed < 0 || seed >= n {
		return nil, fmt.Errorf("core: seed %d out of range [0,%d)", seed, n)
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: top-k size %d must be positive", k)
	}

	var st TopKStats
	bi, isolated := p.isolatedBlock(p.Perm[seed])
	switch {
	case pending:
		st.Fallback = TopKFallbackPending
	case isolated:
		ws := p.AcquireWorkspace()
		nodes, scores, err := p.solveIsolatedTopKCtx(ctx, seed, bi, k, ws)
		p.ReleaseWorkspace(ws)
		if err != nil {
			return nil, err
		}
		st.BlocksSolved, st.BlocksSkipped = 1, len(p.Blocks)-1
		return &TopKResult{Nodes: nodes, Scores: scores, Stats: st}, nil
	case k > p.topKKnown(seed):
		st.Fallback = TopKFallbackNoThreshold
	default:
		// pending was false at entry, so p factors exactly the graph this
		// query promises to reflect.
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
