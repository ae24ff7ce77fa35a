package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"bear/internal/obsv"
	"bear/internal/sparse/kernel"
)

// Query computes the RWR score vector for a single seed node (Algorithm 2
// of the paper). The result is indexed by graph node id. The only heap
// allocation is the returned slice; use QueryTo to avoid even that.
func (p *Precomputed) Query(seed int) ([]float64, error) {
	dst := make([]float64, p.N)
	if err := p.QueryTo(dst, seed, nil); err != nil {
		return nil, err
	}
	return dst, nil
}

// QueryTo computes the RWR score vector for a single seed into dst, which
// must have length N. A nil ws borrows a pooled workspace; passing an
// explicit one (per goroutine) makes steady-state queries allocation-free.
// Single-seed queries take the block-restricted fast path: the forward
// half of Algorithm 2 touches only the seed's diagonal block (Lemma 1),
// with results bit-identical to the general path. QueryToCtx additionally
// honors cancellation.
func (p *Precomputed) QueryTo(dst []float64, seed int, ws *Workspace) error {
	return p.QueryToCtx(context.Background(), dst, seed, ws)
}

// QueryDist computes personalized PageRank for an arbitrary starting
// distribution q indexed by graph node id (Section 3.4). q must be
// non-negative; it is not required to sum to one, and the result scales
// linearly with it.
func (p *Precomputed) QueryDist(q []float64) ([]float64, error) {
	dst := make([]float64, p.N)
	if err := p.QueryDistTo(dst, q, nil); err != nil {
		return nil, err
	}
	return dst, nil
}

// QueryDistTo is QueryDist writing into caller-owned dst (length N); a nil
// ws borrows a pooled workspace. dst may alias q. Starting vectors with a
// single nonzero entry are routed to the same block-restricted fast path
// as QueryTo. QueryDistToCtx additionally honors cancellation.
func (p *Precomputed) QueryDistTo(dst, q []float64, ws *Workspace) error {
	return p.QueryDistToCtx(context.Background(), dst, q, ws)
}

// solve computes H⁻¹ b by block elimination (Algorithm 2 without the c
// scaling), for an arbitrary right-hand side indexed by graph node id. It
// is the primitive both QueryDist and the Woodbury update layer build on.
func (p *Precomputed) solve(b []float64) []float64 {
	r := make([]float64, p.N)
	ws := p.AcquireWorkspace()
	p.solveTo(r, b, ws)
	p.ReleaseWorkspace(ws)
	return r
}

// solveTo computes H⁻¹ b into dst using ws for every intermediate, so it
// performs no heap allocations. A right-hand side with exactly one nonzero
// dispatches to the block-restricted single-seed path; the results are
// bit-identical to the general path either way.
func (p *Precomputed) solveTo(dst, b []float64, ws *Workspace) {
	// context.Background is never cancelled, so the error is always nil.
	_ = p.solveToCtx(context.Background(), dst, b, ws)
}

func (p *Precomputed) solveToCtx(ctx context.Context, dst, b []float64, ws *Workspace) error {
	support := -1
	for i, v := range b {
		if v != 0 {
			if support >= 0 {
				support = -1
				break
			}
			support = i
		}
	}
	if support >= 0 {
		return p.solveSeedToCtx(ctx, dst, p.Perm[support], b[support], ws)
	}
	return p.solveGeneralToCtx(ctx, dst, b, ws)
}

// solveGeneralToCtx is the unrestricted block-elimination solve: permute
// and split b, forward pass through the spoke factors, Schur-complement
// solve, back-substitution, and the inverse permutation into dst.
// Cancellation is checked between the stages, and each stage records a
// span into the trace carried by ctx (a no-op when tracing is off).
func (p *Precomputed) solveGeneralToCtx(ctx context.Context, dst, b []float64, ws *Workspace) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	tr := obsv.FromContext(ctx)
	n1 := p.N1
	bp := ws.full
	for node, v := range b {
		bp[p.Perm[node]] = v
	}
	b1, b2 := bp[:n1], bp[n1:]

	// t = U₁⁻¹ (L₁⁻¹ b₁), the forward half of Algorithm 2.
	sw := tr.Start(obsv.SpanForwardSolve)
	p.kern.l1inv.SpMV(ws.s1a, b1, kernel.Exact)
	p.kern.u1inv.SpMV(ws.s1b, ws.s1a, kernel.Exact)
	sw.Stop()
	if err := ctx.Err(); err != nil {
		return err
	}
	sw = tr.Start(obsv.SpanSchurSolve)
	r2 := p.schurSolveTo(b2, ws.s1b, 0, n1, ws)
	sw.Stop()
	if err := ctx.Err(); err != nil {
		return err
	}
	sw = tr.Start(obsv.SpanBackSolve)
	p.backSolveTo(dst, b1, r2, ws)
	sw.Stop()
	return nil
}

// solveSeedToCtx computes H⁻¹ (val·e_node) into dst for the node at internal
// position pos. For a spoke seed the forward pass U₁⁻¹L₁⁻¹b₁ is supported
// only on the seed's diagonal block (Lemma 1: the factors of a
// block-diagonal matrix are block diagonal), so the two triangular
// products run over that block's row range and the H₂₁ product over its
// column range, all located via the precomputed block prefix sums. For a
// hub seed b₁ = 0 and the forward pass vanishes entirely. Skipped terms
// are exact zeros, so dst is bit-identical to the general path.
// Cancellation is checked between the stages.
func (p *Precomputed) solveSeedToCtx(ctx context.Context, dst []float64, pos int, val float64, ws *Workspace) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	tr := obsv.FromContext(ctx)
	n1, n2 := p.N1, p.N2
	bp := ws.full
	for i := range bp {
		bp[i] = 0
	}
	bp[pos] = val
	b1, b2 := bp[:n1], bp[n1:]

	var r2 []float64
	if n2 > 0 {
		if pos < n1 {
			sw := tr.Start(obsv.SpanForwardSolve)
			bi := p.blockOfPos(pos)
			lo, hi := p.BlockOffsets[bi], p.BlockOffsets[bi+1]
			p.kern.l1inv.SpMVRange(ws.s1a, b1, lo, hi, kernel.Exact)
			p.kern.u1inv.SpMVRange(ws.s1b, ws.s1a, lo, hi, kernel.Exact)
			sw.Stop()
			if err := ctx.Err(); err != nil {
				return err
			}
			sw = tr.Start(obsv.SpanSchurSolve)
			r2 = p.schurSolveTo(b2, ws.s1b, lo, hi, ws)
			sw.Stop()
		} else {
			// A hub seed has b₁ = 0, so the forward half vanishes; record
			// the span anyway so traces always show the full stage set.
			tr.Add(obsv.SpanForwardSolve, 0)
			sw := tr.Start(obsv.SpanSchurSolve)
			r2 = p.schurSolveTo(b2, nil, 0, 0, ws)
			sw.Stop()
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	sw := tr.Start(obsv.SpanBackSolve)
	p.backSolveTo(dst, b1, r2, ws)
	sw.Stop()
	return nil
}

// schurSolveTo computes r₂ = U₂⁻¹ (L₂⁻¹ P (b₂ − H₂₁ t)) where t is valid
// on rows [lo, hi) and exactly zero elsewhere (an empty range means t = 0
// and the H₂₁ product is skipped). P is the pivot permutation of S's LU.
// The returned slice is one of ws's hub-length buffers; nil when n₂ = 0.
func (p *Precomputed) schurSolveTo(b2, t []float64, lo, hi int, ws *Workspace) []float64 {
	if p.N2 == 0 {
		return nil
	}
	y, spare := ws.s2a, ws.s2b
	if hi > lo {
		p.kern.h21.SpMVColRange(y, t, lo, hi, kernel.Exact)
	} else {
		for i := range y {
			y[i] = 0
		}
	}
	for i := range y {
		y[i] = b2[i] - y[i]
	}
	if p.SPerm != nil {
		for i, src := range p.SPerm {
			spare[i] = y[src]
		}
		y, spare = spare, y
	}
	p.kern.l2inv.SpMV(spare, y, kernel.Exact)
	y, spare = spare, y
	p.kern.u2inv.SpMV(spare, y, kernel.Exact)
	return spare
}

// backSolveTo computes r₁ = U₁⁻¹ (L₁⁻¹ (b₁ − H₁₂ r₂)) and writes the
// concatenated solution (r₁ ‖ r₂), permuted back to graph node order,
// into dst. b₁ must alias ws.full (it is read after scratch reuse).
func (p *Precomputed) backSolveTo(dst, b1, r2 []float64, ws *Workspace) {
	n1 := p.N1
	z := ws.s1a
	if p.N2 > 0 {
		p.kern.h12.SpMV(z, r2, kernel.Exact)
	} else {
		for i := range z {
			z[i] = 0
		}
	}
	for i := range z {
		z[i] = b1[i] - z[i]
	}
	p.kern.l1inv.SpMV(ws.s1b, z, kernel.Exact)
	p.kern.u1inv.SpMV(ws.s1a, ws.s1b, kernel.Exact)
	r1 := ws.s1a
	for node := 0; node < p.N; node++ {
		pos := p.Perm[node]
		if pos < n1 {
			dst[node] = r1[pos]
		} else {
			dst[node] = r2[pos-n1]
		}
	}
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
	r, err := p.Query(seed)
	if err != nil {
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

// topKFiltered is the candidate filter shared by TopK, TopKExcluding, and
// TopKCandidates: indices for which skip returns true never enter the
// heap, everything else ranks exactly as in TopK.
func topKFiltered(scores []float64, k int, skip func(int) bool) []int {
	return topKOver(scores, k, nil, skip)
}

// topKOver is the bounded min-heap behind every top-k selection. ids
// restricts the candidates to a subset of indices (nil means all of
// scores); indices for which skip returns true never enter the heap.
// Candidates rank by descending score, ties by ascending id, NaN ordered
// explicitly as the worst possible score.
func topKOver(scores []float64, k int, ids []int, skip func(int) bool) []int {
	limit := len(scores)
	if ids != nil {
		limit = len(ids)
	}
	if k > limit {
		k = limit
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
	if ids != nil {
		for _, i := range ids {
			if len(h) < k {
				push(i)
			} else if !worse(i, h[0]) {
				replaceRoot(i)
			}
		}
	} else {
		i := 0
		for ; i < len(scores) && len(h) < k; i++ {
			if skip == nil || !skip(i) {
				push(i)
			}
		}
		// Once the heap is full, a real root score θ settles most nodes
		// with one comparison: the scan runs in ascending id order, so a
		// node tying θ has a higher id than the root and ranks below it,
		// and a NaN ranks below any real θ — both fail scores[i] > θ.
		// Only a NaN root needs the general comparison. skip runs only
		// for nodes that pass the threshold.
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
	}
	sort.Slice(h, func(a, b int) bool { return worse(h[b], h[a]) })
	return h
}
