package core

// Block-pruned top-k back-substitution for a sparse starting distribution
// (one seed, or a weighted handful for personalized PageRank). The full
// exact solve spends most of its time in backSolve's L₁⁻¹/U₁⁻¹ products
// over every spoke block, yet a top-k query only needs exact scores for
// blocks that can plausibly reach rank k. Each block's solution admits a
// certified a-priori bound from quantities that are cheap to precompute:
//
//	x₁ᵢ = U₁ᵢ⁻¹ L₁ᵢ⁻¹ zᵢ  ⇒  ‖x₁ᵢ‖_∞ ≤ ‖x₁ᵢ‖₁ ≤ Σ_j |zᵢ[j]| · ν[j],
//
// where ν[j] ≥ ‖U₁ᵢ⁻¹ L₁ᵢ⁻¹ e_j‖₁ is a per-column bound on the ℓ₁ mass of
// the block factors' response to a unit impulse, computed once per index
// from the stored factors (see topKColBounds). The bound is the triangle
// inequality over the factors as stored, so it holds whatever their signs
// and whatever entries a drop tolerance removed: approximate and Laplacian
// indexes prune exactly like exact ones. Blocks whose bound falls
// strictly below the current k-th best exact score cannot contain a top-k
// node and their two triangular products are skipped outright; every score
// that is computed runs through the same kernels in the same order as the
// full solve, so computed entries are bit-identical and the returned top-k
// equals TopK(full exact solve, k) in nodes, order and scores.

import (
	"context"
	"math"
	"sort"

	"bear/internal/obsv"
)

// topKBoundSlack inflates computed bounds so floating-point rounding in
// the bound arithmetic (relative error ~1e-14 per accumulation chain)
// can never let a true score escape its certificate.
const topKBoundSlack = 1 + 1e-9

// topKColBounds returns ν: for each spoke column j, a certified upper
// bound on ‖U₁⁻¹L₁⁻¹e_j‖₁ (the factors are block diagonal, so the bound
// is per-block by construction). Writing colU[k] = ‖U₁⁻¹e_k‖₁ (the k-th
// absolute column sum of the stored U₁⁻¹),
//
//	‖U₁⁻¹L₁⁻¹e_j‖₁ = ‖U₁⁻¹ (L₁⁻¹e_j)‖₁ ≤ Σ_k |L₁⁻¹[k,j]| · colU[k],
//
// one weighted pass over L₁⁻¹'s nonzeros. The result is cached on the
// Precomputed (it depends only on the immutable factors).
func (p *Precomputed) topKColBounds() []float64 {
	p.topkOnce.Do(func() {
		n1 := p.N1
		nu := make([]float64, n1)
		if n1 == 0 || p.L1Inv == nil || p.U1Inv == nil {
			p.topkNu = nu
			return
		}
		colU := make([]float64, n1)
		u := p.U1Inv
		for r := 0; r < u.R; r++ {
			for idx := u.RowPtr[r]; idx < u.RowPtr[r+1]; idx++ {
				colU[u.ColIdx[idx]] += math.Abs(u.Val[idx])
			}
		}
		l := p.L1Inv
		for r := 0; r < l.R; r++ {
			w := colU[r]
			for idx := l.RowPtr[r]; idx < l.RowPtr[r+1]; idx++ {
				nu[l.ColIdx[idx]] += math.Abs(l.Val[idx]) * w
			}
		}
		for j := range nu {
			nu[j] *= topKBoundSlack
		}
		p.topkNu = nu
	})
	return p.topkNu
}

// supportBlocks appends to blocks the diagonal blocks holding the spoke
// entries of sup, ascending and each once, and reports whether sup reaches
// no hub: it holds no hub and all its blocks are isolated. An empty
// support reaches none.
func (p *Precomputed) supportBlocks(blocks []int, sup []supportEntry) ([]int, bool) {
	isolated := true
	for _, e := range sup {
		if e.pos >= p.N1 {
			return blocks, false // hubs sort last
		}
		bi := p.blockOfPos(e.pos)
		if n := len(blocks); n == 0 || blocks[n-1] != bi {
			blocks = append(blocks, bi)
			isolated = isolated && p.blockIsolated(bi)
		}
	}
	return blocks, isolated
}

// inBlocks reports whether internal position pos lies in one of the
// ascending diagonal blocks.
func (p *Precomputed) inBlocks(blocks []int, pos int) bool {
	i := sort.Search(len(blocks), func(i int) bool { return p.BlockOffsets[blocks[i]+1] > pos })
	return i < len(blocks) && p.BlockOffsets[blocks[i]] <= pos
}

// topKKnown counts the scores the block-pruned solve computes before its
// first pruning decision: the n₂ hubs plus the support's own blocks. For k
// above it no k-th best score θ exists at the filter pass, so every block
// with a nonzero bound survives to be ordered and solved; QueryDistTopKCtx
// runs the full solve instead.
func (p *Precomputed) topKKnown(blocks []int) int {
	known := p.N2
	for _, bi := range blocks {
		known += p.BlockOffsets[bi+1] - p.BlockOffsets[bi]
	}
	return known
}

// solveTopKCtx answers a top-k query for the sparse right-hand side sup,
// whose spoke entries lie in blocks, with the block-pruned exact solve. It
// runs the pipeline's load, forward and Schur stages (hub scores are
// always exact): one entry takes the block-restricted seed forward, more
// take the unrestricted one, as solveToCtx does for the dense form. It
// then back-substitutes the support's blocks, and every other spoke block
// in decreasing order of its certified score bound, stopping as soon as
// the remaining bounds fall strictly below the running k-th best exact
// score.
// Scores are final (restart-scaled); nodes are graph ids ranked with
// TopK's exact comparator. solved and skipped count spoke blocks.
func (p *Precomputed) solveTopKCtx(ctx context.Context, sup []supportEntry, blocks []int, k int, ws *Workspace) (nodes []int, scores []float64, solved, skipped int, err error) {
	n1, n2 := p.N1, p.N2
	c := p.C
	var at [1]int
	var pos []int // nil: the unrestricted forward
	if len(sup) == 1 {
		at[0] = sup[0].pos
		pos = at[:]
	}
	p.loadSupport(ws, sup)
	tr := obsv.FromContext(ctx)
	r2, err := p.forwardSchur(ctx, tr, ws, 1, pos)
	if err != nil {
		return nil, nil, 0, 0, err
	}

	// The masked back-substitution stage. z = b₁ − H₁₂r₂ is needed in full
	// for the per-block bounds anyway.
	defer tr.Start(obsv.SpanBackSolve).Stop()
	z := p.backRHS(ws, 1, r2)

	// The loaded right-hand side is dead once z exists (r₂ lives in
	// s2a/s2b), so ws.full is recycled as the score vector.
	dst := ws.full
	clear(dst)
	heap := newTopKHeap(dst, k)
	for i := 0; i < n2; i++ {
		v := p.InvPerm[n1+i]
		dst[v] = c * r2[i]
		heap.push(v)
	}

	nu := p.topKColBounds()
	nblocks := len(p.BlockOffsets) - 1
	solveBlock := func(bi int) {
		lo, hi := p.BlockOffsets[bi], p.BlockOffsets[bi+1]
		// The factors are block diagonal: rows [lo,hi) read only columns
		// [lo,hi), so x₁ᵢ may overwrite z's block range in place once its
		// L-product is taken.
		p.kern.l1inv.MulRows(ws.s1b, z, 1, lo, hi)
		p.kern.u1inv.MulRows(z, ws.s1b, 1, lo, hi)
		for j := lo; j < hi; j++ {
			v := p.InvPerm[j]
			dst[v] = c * z[j]
			heap.push(v)
		}
		solved++
	}

	// The support's own blocks always resolve exactly: they hold the
	// restart mass and seed θ with the highest scores in most queries.
	for _, bi := range blocks {
		solveBlock(bi)
	}

	// One filtering pass prunes against the θ the support blocks and hubs
	// already established — θ only grows, so a block rejected here stays
	// certifiably outside the top k. Survivors (typically a handful) are
	// sorted by bound and re-checked against the tightening θ as they
	// resolve. A zero bound means the block's solution is exactly zero
	// (dst already holds it — this is Lemma 1's sparsity, recovered from
	// the bound itself). The pass runs over the gaps between the support's
	// blocks, whose z now holds their solution.
	type bound struct {
		bi int
		u  float64
	}
	var survivors []bound
	theta, full := heap.theta()
	for i, from := 0, 0; i <= len(blocks); i++ {
		to := nblocks
		if i < len(blocks) {
			to = blocks[i]
		}
		for bi := from; bi < to; bi++ {
			lo, hi := p.BlockOffsets[bi], p.BlockOffsets[bi+1]
			var u float64
			for j := lo; j < hi; j++ {
				u += nu[j] * math.Abs(z[j])
			}
			u *= c * topKBoundSlack
			if u == 0 || (full && u < theta) {
				skipped++
				continue
			}
			survivors = append(survivors, bound{bi, u})
		}
		from = to + 1
	}
	sort.Slice(survivors, func(i, j int) bool { return survivors[i].u > survivors[j].u })
	for i, b := range survivors {
		theta, full = heap.theta()
		if full && b.u < theta {
			skipped += len(survivors) - i
			break
		}
		if i&63 == 63 {
			if err := ctx.Err(); err != nil {
				return nil, nil, solved, skipped, err
			}
		}
		solveBlock(b.bi)
	}

	if th, full := heap.theta(); !full || th <= 0 {
		// Fewer than k scores were computed, or zeros reached rank k. Zero
		// scores tie across computed and skipped nodes — both hold exactly
		// 0 in dst — and only a dense selection ranks that tie the way the
		// full solve's TopK does.
		heap.h = heap.h[:0]
		heap.scan(nil)
	}
	nodes, scores = heap.ranked(true)
	return nodes, scores, solved, skipped, nil
}

// solveIsolatedTopKCtx answers a top-k query for the sparse right-hand
// side sup, whose entries all lie in the isolated blocks listed in
// blocks, without an n-length score vector. The support reaches no hub
// (solveIsolated), so every node outside its blocks scores +0, and equal
// scores rank by ascending id: the top k of the full solve are the top k
// of the blocks' nodes plus the k lowest-id nodes outside them, ranked
// with the same comparator. Each block's forward is restricted to its own
// rows (Lemma 1), which is bit-identical to the unrestricted forward the
// full solve runs for a multi-entry support. It allocates only the two
// result slices.
func (p *Precomputed) solveIsolatedTopKCtx(ctx context.Context, sup []supportEntry, blocks []int, k int, ws *Workspace) ([]int, []float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	defer obsv.FromContext(ctx).Start(obsv.SpanForwardSolve).Stop()
	// Every block's forward lands in its own rows of t (ws.s1b).
	t := ws.s1b[:p.N1]
	for _, bi := range blocks {
		j := 0
		for j < len(sup) && sup[j].pos < p.BlockOffsets[bi+1] {
			j++
		}
		lo, hi := p.loadBlockSupport(ws, bi, sup[:j])
		p.forwardIsolated(ws, lo, hi)
		sup = sup[j:]
	}

	// ws.full is dead once t exists, so it holds the candidates' scores by
	// node id; no other entry of it is read.
	heap := newTopKHeap(ws.full, k)
	for _, bi := range blocks {
		for j := p.BlockOffsets[bi]; j < p.BlockOffsets[bi+1]; j++ {
			v := p.InvPerm[j]
			ws.full[v] = p.C * t[j]
			heap.push(v)
		}
	}
	for v, zeros := 0, 0; zeros < heap.k && v < p.N; v++ {
		if p.inBlocks(blocks, p.Perm[v]) {
			continue
		}
		ws.full[v] = 0
		heap.push(v)
		zeros++
	}
	nodes, scores := heap.ranked(true)
	return nodes, scores, nil
}
