package core

import (
	"context"

	"bear/internal/obsv"
	"bear/internal/sparse/kernel"
)

// This file is Algorithm 2 of the paper, written once: block elimination
// over nb right-hand sides held node-contiguously in one Workspace. Every
// query shape — single seed, personalized PageRank, batch chunks, the
// block-pruned top-k solve, Woodbury columns and refinement sweeps — runs
// the same stages:
//
//   - load: unit seeds (loadSeeds), one dense vector (loadDense) or one
//     sparse weighted distribution (loadSupport), permuted into
//     ws.full = (b₁ ‖ b₂);
//   - forward: t = U₁⁻¹L₁⁻¹b₁ and its H₂₁ product. For unit seeds each
//     run of same-block columns touches only its block's rows (Lemma 1:
//     the factors of a block-diagonal matrix are block diagonal), and hub
//     columns have b₁ = 0, so their forward vanishes;
//   - Schur: r₂ = U₂⁻¹L₂⁻¹P(b₂ − H₂₁t), each product over its input's
//     window of nonzero rows when that window spans at most half of them;
//   - back-substitution: r₁ = U₁⁻¹L₁⁻¹(b₁ − H₁₂r₂), over every block
//     here, or over the blocks the top-k bound selects (topksolve.go);
//   - scatter: (r₁ ‖ r₂) back to graph node order, times a scale factor.
//
// A right-hand side that never reaches a hub skips every stage after the
// forward one (solveIsolated): b₂ = 0 and all of b₁'s support lies in
// isolated blocks, whose columns hold no H₂₁ entry.
//
// Skipped terms are exact zeros and every column is accumulated in the
// single-vector kernels' order, so all shapes are bit-identical to the
// unrestricted solve (asserted with == in the tests). Width 1 runs the
// single-vector kernels and wider blocks the multi-RHS ones, so one
// factor traversal serves a whole batch chunk; the multi-RHS passes over
// L₂⁻¹/U₂⁻¹/H₁₂/L₁⁻¹/U₁⁻¹ are where batching pays, since those passes
// dominate the per-seed cost and are memory-bandwidth-bound.
//
// Cancellation is checked between the stages rather than inside the
// kernels: a cancelled request stops within one stage, and the
// uncancelled hot path pays only a nil-check per stage. Each stage
// records its span into the trace carried by ctx (a no-op when tracing is
// off).

// blockKey maps an internal position to its forward-stage group: the
// diagonal block of a spoke, or len(Blocks) for every hub.
func (p *Precomputed) blockKey(pos int) int {
	if pos >= p.N1 {
		return len(p.Blocks)
	}
	return p.blockOfPos(pos)
}

// loadSeeds sets column k of ws.full to val·e at internal position
// pos[k], for nb = len(pos) columns.
func (p *Precomputed) loadSeeds(ws *Workspace, pos []int, val float64) {
	nb := len(pos)
	b := ws.full[:p.N*nb]
	clear(b)
	for k, at := range pos {
		b[at*nb+k] = val
	}
}

// supportEntry is one nonzero of a sparse right-hand side: an internal
// position and its weight. A support lists each position once, sorted by
// position, so the entries of one diagonal block are adjacent and the hubs
// come last.
type supportEntry struct {
	pos int
	w   float64
}

// loadSupport loads the sparse right-hand side sup into ws.full.
func (p *Precomputed) loadSupport(ws *Workspace, sup []supportEntry) {
	b := ws.full[:p.N]
	clear(b)
	for _, e := range sup {
		b[e.pos] = e.w
	}
}

// loadDense permutes one right-hand side b, indexed by node id, into
// ws.full.
func (p *Precomputed) loadDense(ws *Workspace, b []float64) {
	full := ws.full[:p.N]
	for node, v := range b {
		full[p.Perm[node]] = v
	}
}

// solveSeedTo computes scale·H⁻¹(val·e) into dst for the node at internal
// position pos.
func (p *Precomputed) solveSeedTo(ctx context.Context, dst []float64, pos int, val, scale float64, ws *Workspace) error {
	if bi, ok := p.isolatedBlock(pos); ok {
		seed := [1]supportEntry{{pos, val}}
		lo, hi := p.loadBlockSupport(ws, bi, seed[:])
		return p.solveIsolated(ctx, dst, lo, hi, scale, ws)
	}
	at, col := [1]int{pos}, [1]int{0}
	p.loadSeeds(ws, at[:], val)
	return p.solveLoaded(ctx, ws, at[:], [][]float64{dst}, col[:], scale)
}

// solveDenseTo computes scale·H⁻¹b into dst with the unrestricted forward
// stage, whatever b's support; a b that reaches no hub stops after it
// (solveIsolated). dst may alias b.
func (p *Precomputed) solveDenseTo(ctx context.Context, dst, b []float64, scale float64, ws *Workspace) error {
	col := [1]int{0}
	p.loadDense(ws, b)
	if p.loadedIsolated(ws) {
		return p.solveIsolated(ctx, dst, 0, p.N1, scale, ws)
	}
	return p.solveLoaded(ctx, ws, nil, [][]float64{dst}, col[:], scale)
}

// loadedIsolated reports whether the dense right-hand side loaded in ws
// reaches no hub: b₂ = 0 and b₁ is zero on every block that is not
// isolated. It reads b once.
func (p *Precomputed) loadedIsolated(ws *Workspace) bool {
	for _, v := range ws.full[p.N1:p.N] {
		if v != 0 {
			return false
		}
	}
	for bi := range p.Blocks {
		if p.blockIsolated(bi) {
			continue
		}
		for _, v := range ws.full[p.BlockOffsets[bi]:p.BlockOffsets[bi+1]] {
			if v != 0 {
				return false
			}
		}
	}
	return true
}

// loadBlockSupport loads the support entries sup, all inside diagonal
// block bi, into the rows [lo, hi) of that block in ws.full and returns
// that range. Rows outside it keep whatever they held: the
// block-restricted products read only the block's rows.
func (p *Precomputed) loadBlockSupport(ws *Workspace, bi int, sup []supportEntry) (lo, hi int) {
	lo, hi = p.BlockOffsets[bi], p.BlockOffsets[bi+1]
	clear(ws.full[lo:hi])
	for _, e := range sup {
		ws.full[e.pos] = e.w
	}
	return lo, hi
}

// solveIsolated answers a right-hand side that reaches no hub, loaded in
// ws with its b₁ support inside spoke rows [lo, hi): dst = scale·t on
// those rows and +0 everywhere else, for t = U₁⁻¹L₁⁻¹b₁. It is exactly
// what the full pipeline returns. H₂₁ stores nothing in the support's
// columns, so H₂₁t = +0 and b₂ − H₂₁t = +0; the Schur products then
// return r₂ = +0, since every kernel accumulates from +0; z = b₁ − H₁₂·0
// equals b₁ bit for bit; and the back-substitution recomputes t with the
// same kernels on the same inputs. So the Schur stage, the H₁₂ product
// and the second pair of triangular products are skipped, and the trace
// shows forward_solve alone.
func (p *Precomputed) solveIsolated(ctx context.Context, dst []float64, lo, hi int, scale float64, ws *Workspace) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	defer obsv.FromContext(ctx).Start(obsv.SpanForwardSolve).Stop()
	t := p.forwardIsolated(ws, lo, hi)
	clear(dst)
	for j := lo; j < hi; j++ {
		dst[p.InvPerm[j]] = t[j] * scale
	}
	return nil
}

// forwardIsolated computes rows [lo, hi) of t = U₁⁻¹L₁⁻¹b₁ for the b₁
// loaded in ws.full and returns t, an n₁-length view of ws.s1b.
func (p *Precomputed) forwardIsolated(ws *Workspace, lo, hi int) []float64 {
	b, t1, t := ws.full[:p.N1], ws.s1a[:p.N1], ws.s1b[:p.N1]
	if lo == 0 && hi == p.N1 {
		p.kern.l1inv.Mul(t1, b, 1)
		p.kern.u1inv.Mul(t, t1, 1)
	} else {
		p.kern.l1inv.MulRows(t1, b, 1, lo, hi)
		p.kern.u1inv.MulRows(t, t1, 1, lo, hi)
	}
	return t
}

// solveToCtx computes scale·H⁻¹b into dst for b indexed by node id. A
// right-hand side with exactly one nonzero takes the block-restricted
// seed path; the results are bit-identical either way. dst may alias b.
func (p *Precomputed) solveToCtx(ctx context.Context, dst, b []float64, scale float64, ws *Workspace) error {
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
		return p.solveSeedTo(ctx, dst, p.Perm[support], b[support], scale, ws)
	}
	return p.solveDenseTo(ctx, dst, b, scale, ws)
}

// solveLoaded runs the forward, Schur and full back-substitution stages
// on the nb = len(cols) right-hand sides loaded in ws, and scatters column
// k of scale·H⁻¹B to dst[cols[k]]. pos lists the unit seeds' internal
// positions by column, same-block columns adjacent; nil marks a dense
// right-hand side.
func (p *Precomputed) solveLoaded(ctx context.Context, ws *Workspace, pos []int, dst [][]float64, cols []int, scale float64) error {
	nb := len(cols)
	tr := obsv.FromContext(ctx)
	r2, err := p.forwardSchur(ctx, tr, ws, nb, pos)
	if err != nil {
		return err
	}
	sw := tr.Start(obsv.SpanBackSolve)
	r1 := p.backSolve(ws, nb, r2)
	p.scatter(dst, cols, r1, r2, scale)
	sw.Stop()
	return nil
}

// forwardSchur runs the forward and Schur stages and returns r₂ (n₂×nb,
// a view into ws; nil when n₂ = 0, where both stages vanish). It checks
// ctx before, between and after them.
func (p *Precomputed) forwardSchur(ctx context.Context, tr *obsv.Trace, ws *Workspace, nb int, pos []int) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var r2 []float64
	if p.N2 > 0 {
		sw := tr.Start(obsv.SpanForwardSolve)
		h := p.forward(ws, nb, pos)
		sw.Stop()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sw = tr.Start(obsv.SpanSchurSolve)
		r2 = p.schur(ws, nb, h)
		sw.Stop()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r2, nil
}

// forward computes t = U₁⁻¹L₁⁻¹b₁ and writes H₂₁t into ws.s2a (n₂×nb),
// which it returns. A dense right-hand side (pos == nil) runs the full
// triangular products and H₂₁'s column window [0, n₁). Unit seeds run one
// pass per run of same-block columns, restricted to that block's rows and
// H₂₁ columns; a hub run's H₂₁t is zero. A run spanning all nb columns
// works in place; a narrower one is compacted to its own width first.
func (p *Precomputed) forward(ws *Workspace, nb int, pos []int) []float64 {
	n1, n2 := p.N1, p.N2
	b1, t1, t2 := ws.full[:n1*nb], ws.s1a[:n1*nb], ws.s1b[:n1*nb]
	h := ws.s2a[:n2*nb]
	if pos == nil {
		p.kern.l1inv.Mul(t1, b1, nb)
		p.kern.u1inv.Mul(t2, t1, nb)
		p.kern.h21.MulCols(h, t2, nb, 0, n1)
		return h
	}
	for rs := 0; rs < nb; {
		bi := p.blockKey(pos[rs])
		re := rs + 1
		for re < nb && p.blockKey(pos[re]) == bi {
			re++
		}
		switch g := re - rs; {
		case bi == len(p.Blocks):
			for i := 0; i < n2; i++ {
				for k := rs; k < re; k++ {
					h[i*nb+k] = 0
				}
			}
		case g == nb:
			lo, hi := p.BlockOffsets[bi], p.BlockOffsets[bi+1]
			p.kern.l1inv.MulRows(t1, b1, nb, lo, hi)
			p.kern.u1inv.MulRows(t2, t1, nb, lo, hi)
			p.kern.h21.MulCols(h, t2, nb, lo, hi)
		default:
			// Only the block rows are read by the restricted products, so
			// only they are cleared.
			lo, hi := p.BlockOffsets[bi], p.BlockOffsets[bi+1]
			gb, gt, gh := ws.s1a[:n1*g], ws.s1b[:n1*g], ws.s2b[:n2*g]
			clear(gb[lo*g : hi*g])
			for k := rs; k < re; k++ {
				gb[pos[k]*g+k-rs] = b1[pos[k]*nb+k]
			}
			p.kern.l1inv.MulRows(gt, gb, g, lo, hi)
			p.kern.u1inv.MulRows(gb, gt, g, lo, hi)
			p.kern.h21.MulCols(gh, gb, g, lo, hi)
			for i := 0; i < n2; i++ {
				copy(h[i*nb+rs:i*nb+re], gh[i*g:(i+1)*g])
			}
		}
		rs = re
	}
	return h
}

// schur computes r₂ = U₂⁻¹L₂⁻¹P(b₂ − h) for h = H₂₁t held in ws.s2a, where
// P is the pivot permutation of S's LU. The result is one of ws's
// hub-length blocks. Each triangular product reads only the window of its
// input's nonzero rows when that window spans at most half of them
// (mulNonzero): a seed's y usually has a handful of nonzeros, so L₂⁻¹
// runs over a narrow column window, and U₂⁻¹ from the first nonzero of
// L₂⁻¹y on.
func (p *Precomputed) schur(ws *Workspace, nb int, h []float64) []float64 {
	n1, n2 := p.N1, p.N2
	b2 := ws.full[n1*nb : (n1+n2)*nb]
	for i := range h {
		h[i] = b2[i] - h[i]
	}
	y, spare := h, ws.s2b[:n2*nb]
	if p.SPerm != nil {
		for i, src := range p.SPerm {
			copy(spare[i*nb:(i+1)*nb], y[src*nb:(src+1)*nb])
		}
		y, spare = spare, y
	}
	mulNonzero(p.kern.l2inv, spare, y, nb)
	y, spare = spare, y
	mulNonzero(p.kern.u2inv, spare, y, nb)
	return spare
}

// mulNonzero computes y = M·x for nb right-hand sides. When x's nonzero
// rows fit in a window of at most half its rows, only that column window
// is read (MulCols): the skipped terms multiply exact zeros, and every
// row accumulates from +0, which adding ±0 leaves unchanged, so y is
// bit-identical to the full product; no triangularity is assumed. A wider
// window runs the full product: locating each row's window costs a few
// comparisons whatever its width, which on a small hub core is more than
// the skipped entries save.
func mulNonzero(m kernel.Matrix, y, x []float64, nb int) {
	lo, hi := nonzeroWindow(x, nb)
	if 2*(hi-lo) > len(x)/nb {
		m.Mul(y, x, nb)
		return
	}
	m.MulCols(y, x, nb, lo, hi)
}

// nonzeroWindow returns the rows [lo, hi) of x, nb values to a row,
// outside which x is zero.
func nonzeroWindow(x []float64, nb int) (lo, hi int) {
	hi = len(x)
	for hi > 0 && x[hi-1] == 0 {
		hi--
	}
	for lo < hi && x[lo] == 0 {
		lo++
	}
	return lo / nb, (hi + nb - 1) / nb
}

// backRHS computes z = b₁ − H₁₂r₂ into ws.s1a: the right-hand side every
// spoke block's back-substitution shares.
func (p *Precomputed) backRHS(ws *Workspace, nb int, r2 []float64) []float64 {
	z := ws.s1a[:p.N1*nb]
	if p.N2 > 0 {
		p.kern.h12.Mul(z, r2, nb)
	} else {
		clear(z)
	}
	b1 := ws.full[:p.N1*nb]
	for i := range z {
		z[i] = b1[i] - z[i]
	}
	return z
}

// backSolve is the full back-substitution stage: r₁ = U₁⁻¹L₁⁻¹z over every
// spoke block, returned in ws.s1a.
func (p *Precomputed) backSolve(ws *Workspace, nb int, r2 []float64) []float64 {
	z := p.backRHS(ws, nb, r2)
	t := ws.s1b[:p.N1*nb]
	p.kern.l1inv.Mul(t, z, nb)
	p.kern.u1inv.Mul(z, t, nb)
	return z
}

// scatter writes column k of scale·(r₁ ‖ r₂) into dst[cols[k]] in graph
// node order, node-major so the permutation is read once.
func (p *Precomputed) scatter(dst [][]float64, cols []int, r1, r2 []float64, scale float64) {
	n1, nb := p.N1, len(cols)
	if nb == 1 {
		out := dst[cols[0]]
		for node, pos := range p.Perm {
			if pos < n1 {
				out[node] = r1[pos] * scale
			} else {
				out[node] = r2[pos-n1] * scale
			}
		}
		return
	}
	for node, pos := range p.Perm {
		var row []float64
		if pos < n1 {
			row = r1[pos*nb : (pos+1)*nb]
		} else {
			row = r2[(pos-n1)*nb : (pos-n1+1)*nb]
		}
		for k, ii := range cols {
			dst[ii][node] = row[k] * scale
		}
	}
}
