package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Query computes the RWR score vector for a single seed node (Algorithm 2
// of the paper). The result is indexed by graph node id. The only heap
// allocation is the returned slice; use QueryToCtx to avoid even that.
func (p *Precomputed) Query(seed int) ([]float64, error) {
	dst := make([]float64, p.N)
	if err := p.QueryToCtx(context.Background(), dst, seed, nil); err != nil {
		return nil, err
	}
	return dst, nil
}

// QueryToCtx computes the RWR score vector for a single seed into dst,
// which must have length N, honoring cancellation and deadlines on ctx. A
// nil ws borrows a pooled workspace; passing an explicit one (per
// goroutine) makes steady-state queries allocation-free. The forward half
// of Algorithm 2 touches only the seed's diagonal block (Lemma 1), with
// results bit-identical to the unrestricted solve.
func (p *Precomputed) QueryToCtx(ctx context.Context, dst []float64, seed int, ws *Workspace) error {
	if seed < 0 || seed >= p.N {
		return fmt.Errorf("core: seed %d out of range [0,%d)", seed, p.N)
	}
	if len(dst) != p.N {
		return fmt.Errorf("core: destination length %d, want %d", len(dst), p.N)
	}
	if ws == nil {
		ws = p.AcquireWorkspace()
		defer p.ReleaseWorkspace(ws)
	}
	return p.solveSeedTo(ctx, dst, p.Perm[seed], 1, p.C, ws)
}

// QueryDist computes personalized PageRank for an arbitrary starting
// distribution q indexed by graph node id (Section 3.4). q must be
// non-negative; it is not required to sum to one, and the result scales
// linearly with it.
func (p *Precomputed) QueryDist(q []float64) ([]float64, error) {
	dst := make([]float64, p.N)
	if err := p.QueryDistToCtx(context.Background(), dst, q, nil); err != nil {
		return nil, err
	}
	return dst, nil
}

// QueryDistToCtx is QueryDist writing into caller-owned dst (length N) and
// honoring cancellation and deadlines on ctx; a nil ws borrows a pooled
// workspace. dst may alias q. Starting vectors with a single nonzero
// entry take the same block-restricted path as QueryToCtx.
func (p *Precomputed) QueryDistToCtx(ctx context.Context, dst, q []float64, ws *Workspace) error {
	if len(q) != p.N {
		return fmt.Errorf("core: starting vector length %d, want %d", len(q), p.N)
	}
	if len(dst) != p.N {
		return fmt.Errorf("core: destination length %d, want %d", len(dst), p.N)
	}
	for i, v := range q {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("core: starting vector entry %d is %g; must be non-negative", i, v)
		}
	}
	if ws == nil {
		ws = p.AcquireWorkspace()
		defer p.ReleaseWorkspace(ws)
	}
	return p.solveToCtx(ctx, dst, q, p.C, ws)
}

// QueryPageRank computes global PageRank with damping factor 1−c: the
// personalized-PageRank query with the uniform starting distribution
// (Section 2.1 of the paper treats PPR as the generalization; the uniform
// q recovers the classic ranking).
func (p *Precomputed) QueryPageRank() ([]float64, error) {
	q := make([]float64, p.N)
	u := 1 / float64(p.N)
	for i := range q {
		q[i] = u
	}
	return p.QueryDist(q)
}

// QueryEffectiveImportance computes the effective-importance variant
// (Bogdanov & Singh; Section 3.4 of the paper): RWR scores divided by the
// weighted out-degree of each node. Nodes with zero degree keep their raw
// RWR score.
func (p *Precomputed) QueryEffectiveImportance(seed int) ([]float64, error) {
	return p.QueryEffectiveImportanceCtx(context.Background(), seed)
}

// QueryEffectiveImportanceCtx is QueryEffectiveImportance honoring
// cancellation and deadlines on ctx.
func (p *Precomputed) QueryEffectiveImportanceCtx(ctx context.Context, seed int) ([]float64, error) {
	r := make([]float64, p.N)
	if err := p.QueryToCtx(ctx, r, seed, nil); err != nil {
		return nil, err
	}
	for i := range r {
		if d := p.OutDegree[i]; d > 0 {
			r[i] /= d
		}
	}
	return r, nil
}

// IsHub reports whether a node was classified as a hub (part of the dense
// H₂₂ block) by the ordering engine during preprocessing.
func (p *Precomputed) IsHub(node int) bool {
	if node < 0 || node >= p.N {
		panic(fmt.Sprintf("core: node %d out of range [0,%d)", node, p.N))
	}
	return p.Perm[node] >= p.N1
}

// BlockOf returns the index of the diagonal block of H₁₁ containing a
// spoke node, or -1 for hubs. Nodes in the same block belong to the same
// connected component once hubs are removed.
func (p *Precomputed) BlockOf(node int) int {
	if node < 0 || node >= p.N {
		panic(fmt.Sprintf("core: node %d out of range [0,%d)", node, p.N))
	}
	pos := p.Perm[node]
	if pos >= p.N1 {
		return -1
	}
	return p.blockOfPos(pos)
}

// blockOfPos maps a spoke's internal position to its diagonal-block index
// by binary search over the block prefix sums.
func (p *Precomputed) blockOfPos(pos int) int {
	return sort.SearchInts(p.BlockOffsets, pos+1) - 1
}

// TopK returns the k node ids with the highest scores, in descending score
// order, breaking ties by node id. NaN scores rank below every real score
// (ties among NaNs break by id), so they can only appear in the result
// once every real-scored node is already in it. k is clamped to
// [0, len(scores)]. It runs in O(n log k) with a bounded min-heap whose
// root is the weakest retained candidate, allocating only the result.
func TopK(scores []float64, k int) []int {
	return topKFiltered(scores, k, nil)
}

// topKFiltered is TopK over the ids for which skip (nil: none) returns
// false, behind TopK, TopKExcluding and TopKCandidates.
func topKFiltered(scores []float64, k int, skip func(int) bool) []int {
	h := newTopKHeap(scores, k)
	h.scan(skip)
	ids, _ := h.ranked(false)
	return ids
}

// topKHeap is the one bounded min-heap of node ids behind every top-k
// answer, ranked by a score vector under TopK's order: descending score,
// ties by ascending id, NaN below every real score. Its root is the
// weakest retained id, so once it holds k ids the root's score is the
// running k-th best score θ.
type topKHeap struct {
	scores []float64
	h      []int
	k      int
}

// newTopKHeap returns an empty heap keeping the best k ids of scores, k
// clamped to [0, len(scores)].
func newTopKHeap(scores []float64, k int) topKHeap {
	k = max(0, min(k, len(scores)))
	return topKHeap{scores: scores, h: make([]int, 0, k), k: k}
}

// worse reports whether id a ranks strictly below b: a lower score, or an
// equal score and a higher id. NaN compares false against everything, so
// it is ordered explicitly as the worst score. It must stay small enough
// to inline into push's sift loops and ranked's sort.
func (q *topKHeap) worse(a, b int) bool {
	sa, sb := q.scores[a], q.scores[b]
	return sa < sb || (sa == sb && a > b) || (sa != sa && (sb == sb || a > b))
}

// push offers id i: it is kept while the heap holds fewer than k ids, and
// afterwards only if it outranks the root, which it replaces.
func (q *topKHeap) push(i int) {
	h := q.h
	if len(h) < q.k {
		h = append(h, i)
		for c := len(h) - 1; c > 0; {
			par := (c - 1) / 2
			if !q.worse(h[c], h[par]) {
				break
			}
			h[c], h[par] = h[par], h[c]
			c = par
		}
		q.h = h
		return
	}
	if len(h) == 0 || q.worse(i, h[0]) {
		return
	}
	h[0] = i
	for c := 0; ; {
		l, r, m := 2*c+1, 2*c+2, c
		if l < len(h) && q.worse(h[l], h[m]) {
			m = l
		}
		if r < len(h) && q.worse(h[r], h[m]) {
			m = r
		}
		if m == c {
			break
		}
		h[c], h[m] = h[m], h[c]
		c = m
	}
}

// theta returns the running k-th best score, or (0, false) while fewer
// than k ids have been kept.
func (q *topKHeap) theta() (float64, bool) {
	if q.k == 0 || len(q.h) < q.k {
		return 0, false
	}
	return q.scores[q.h[0]], true
}

// scan offers every id of the score vector in ascending order to an empty
// heap, except the ids for which skip (nil: none) returns true.
func (q *topKHeap) scan(skip func(int) bool) {
	scores := q.scores
	i := 0
	for ; i < len(scores) && len(q.h) < q.k; i++ {
		if skip == nil || !skip(i) {
			q.push(i)
		}
	}
	// Once the heap is full, a real root score θ settles most ids with
	// one comparison: the scan runs in ascending id order, so an id tying
	// θ has a higher id than the root and ranks below it, and a NaN ranks
	// below any real θ — both fail scores[i] > θ. Only a NaN root needs
	// the general comparison. skip runs only for ids that pass θ.
	theta, full := q.theta()
	if !full {
		return
	}
	for ; i < len(scores); i++ {
		if !(scores[i] > theta) && !math.IsNaN(theta) {
			continue
		}
		if skip != nil && skip(i) {
			continue
		}
		q.push(i)
		theta = scores[q.h[0]]
	}
}

// ranked sorts the kept ids best first, in place, and returns them; with
// withScores it also returns their scores in a new slice.
func (q *topKHeap) ranked(withScores bool) ([]int, []float64) {
	slices.SortFunc(q.h, func(a, b int) int {
		if q.worse(b, a) {
			return -1
		}
		if q.worse(a, b) {
			return 1
		}
		return 0
	})
	if !withScores {
		return q.h, nil
	}
	scores := make([]float64, len(q.h))
	for i, v := range q.h {
		scores[i] = q.scores[v]
	}
	return q.h, scores
}
