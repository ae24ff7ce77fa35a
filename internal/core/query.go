package core

import (
	"context"
	"fmt"
	"math"
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

// topKFiltered is the bounded min-heap behind TopK, TopKExcluding, and
// TopKCandidates: indices for which skip returns true never enter the
// heap, everything else ranks by descending score, ties by ascending id,
// NaN ordered explicitly as the worst possible score.
func topKFiltered(scores []float64, k int, skip func(int) bool) []int {
	if k > len(scores) {
		k = len(scores)
	}
	if k <= 0 {
		return []int{}
	}
	// worse reports whether candidate a ranks strictly below b: lower
	// score, or equal score and higher id. NaN compares false against
	// everything, which would leave the heap order undefined, so it is
	// ordered explicitly as the worst possible score.
	worse := func(a, b int) bool {
		sa, sb := scores[a], scores[b]
		if math.IsNaN(sa) {
			return !math.IsNaN(sb) || a > b
		}
		if math.IsNaN(sb) {
			return false
		}
		return sa < sb || (sa == sb && a > b)
	}
	h := make([]int, 0, k)
	push := func(i int) {
		h = append(h, i)
		for c := len(h) - 1; c > 0; {
			par := (c - 1) / 2
			if !worse(h[c], h[par]) {
				break
			}
			h[c], h[par] = h[par], h[c]
			c = par
		}
	}
	// replaceRoot swaps the weakest retained candidate for i and sifts
	// down; the caller has checked that i outranks the root.
	replaceRoot := func(i int) {
		h[0] = i
		for c := 0; ; {
			l, r, m := 2*c+1, 2*c+2, c
			if l < k && worse(h[l], h[m]) {
				m = l
			}
			if r < k && worse(h[r], h[m]) {
				m = r
			}
			if m == c {
				break
			}
			h[c], h[m] = h[m], h[c]
			c = m
		}
	}
	i := 0
	for ; i < len(scores) && len(h) < k; i++ {
		if skip == nil || !skip(i) {
			push(i)
		}
	}
	// Once the heap is full, a real root score θ settles most nodes with
	// one comparison: the scan runs in ascending id order, so a node tying
	// θ has a higher id than the root and ranks below it, and a NaN ranks
	// below any real θ — both fail scores[i] > θ. Only a NaN root needs
	// the general comparison. skip runs only for nodes that pass the
	// threshold.
	theta := math.NaN()
	if len(h) == k {
		theta = scores[h[0]]
	}
	for ; i < len(scores); i++ {
		if !(scores[i] > theta) && !math.IsNaN(theta) {
			continue
		}
		if skip != nil && skip(i) {
			continue
		}
		if worse(i, h[0]) {
			continue
		}
		replaceRoot(i)
		theta = scores[h[0]]
	}
	sort.Slice(h, func(a, b int) bool { return worse(h[b], h[a]) })
	return h
}
