package core

import (
	"context"
	"fmt"
	"sort"

	"bear/internal/obsv"
)

// This file implements the blocked multi-RHS batch solver: Algorithm 2
// applied to a block of seeds at once, so each precomputed factor matrix is
// traversed once per chunk of seeds instead of once per seed. The
// per-column arithmetic — term set and accumulation order — is exactly the
// single-seed fast path's, so every result vector is bit-identical to
// Query on the same seed (asserted with == in the tests).
//
// The solve has two halves with very different structure:
//
//   - The forward half (U₁⁻¹ L₁⁻¹ b₁ and the H₂₁ product) is supported on
//     the seed's diagonal block only (Lemma 1), so seeds are grouped by
//     block and each group runs the block-restricted kernels once at the
//     group's width. Hub seeds have b₁ = 0 and skip it entirely.
//   - The Schur-complement solve and the back-substitution touch the full
//     factors regardless of the seed, so they run at the full chunk width:
//     one pass over L₂⁻¹/U₂⁻¹/H₁₂/L₁⁻¹/U₁⁻¹ serves every seed in the
//     chunk. This is where batching pays — those passes dominate the
//     per-seed cost and are memory-bandwidth-bound on the factor matrices.

// batchScratchFloats bounds the scratch a BatchWorkspace holds: the chunk
// width is chosen so one n-length buffer set stays within this many
// float64s, keeping batch memory flat as graphs grow.
const batchScratchFloats = 1 << 19

// defaultBatchWidth is the widest chunk (number of right-hand sides
// carried per factor traversal) used when memory permits. Wider chunks
// amortize traversals further but see diminishing returns once the
// per-entry inner loop saturates memory bandwidth.
const defaultBatchWidth = 16

// batchWidth returns the chunk width for this graph's size.
func (p *Precomputed) batchWidth() int {
	w := defaultBatchWidth
	if p.N > 0 {
		if c := batchScratchFloats / p.N; c < w {
			w = c
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}

// BatchWorkspace holds the scratch a blocked multi-RHS solve needs: three
// spoke-length and three hub-length buffer blocks, each nb columns wide in
// the node-contiguous layout of the sparse multi-RHS kernels. It is bound
// to the Precomputed it was acquired from and not safe for concurrent use;
// acquire one per goroutine.
type BatchWorkspace struct {
	nb         int
	b1, s1, s2 []float64 // n₁×nb: RHS block and ping-pong scratch
	b2, h, ha  []float64 // n₂×nb: hub RHS and Schur-stage scratch
}

// AcquireBatchWorkspace returns a batch workspace sized for p, reusing a
// pooled one when available. Release it with ReleaseBatchWorkspace.
func (p *Precomputed) AcquireBatchWorkspace() *BatchWorkspace {
	if bw, ok := p.batchPool.Get().(*BatchWorkspace); ok {
		return bw
	}
	nb := p.batchWidth()
	return &BatchWorkspace{
		nb: nb,
		b1: make([]float64, p.N1*nb),
		s1: make([]float64, p.N1*nb),
		s2: make([]float64, p.N1*nb),
		b2: make([]float64, p.N2*nb),
		h:  make([]float64, p.N2*nb),
		ha: make([]float64, p.N2*nb),
	}
}

// ReleaseBatchWorkspace returns bw to p's pool for reuse. bw must have been
// acquired from p and must not be used after release.
func (p *Precomputed) ReleaseBatchWorkspace(bw *BatchWorkspace) {
	if bw == nil {
		return
	}
	if len(bw.b1) != p.N1*bw.nb || len(bw.b2) != p.N2*bw.nb {
		panic(fmt.Sprintf("core: batch workspace sized %d/%d (nb=%d) released to a %d/%d solver",
			len(bw.b1), len(bw.b2), bw.nb, p.N1, p.N2))
	}
	p.batchPool.Put(bw)
}

// seedOrder returns the batch indices reordered so seeds sharing a
// diagonal block are adjacent (hubs last), with original order preserved
// within each group. Chunks sliced from this order then consist of a few
// same-block runs, each serviced by one block-restricted forward pass.
func (p *Precomputed) seedOrder(seeds []int) []int {
	order := make([]int, len(seeds))
	for i := range order {
		order[i] = i
	}
	key := func(i int) int {
		pos := p.Perm[seeds[i]]
		if pos >= p.N1 {
			return len(p.Blocks) // hubs sort after every block
		}
		return p.blockOfPos(pos)
	}
	sort.Slice(order, func(a, b int) bool {
		ka, kb := key(order[a]), key(order[b])
		if ka != kb {
			return ka < kb
		}
		return order[a] < order[b]
	})
	return order
}

// QueryBatchTo computes RWR vectors for many seeds through the blocked
// multi-RHS solver, writing results into caller-owned dst (indexed like
// seeds, each vector of length N). A nil bw borrows a pooled batch
// workspace. Results are bit-identical to QueryTo on each seed.
func (p *Precomputed) QueryBatchTo(ctx context.Context, dst [][]float64, seeds []int, bw *BatchWorkspace) error {
	return p.queryBatchTo(ctx, dst, seeds, 1, bw)
}

// queryChunkTo solves one chunk of up to bw.nb seeds. cols maps chunk
// column k to its index in seeds/dst; same-block seeds occupy consecutive
// columns (the caller ordered them with seedOrder).
func (p *Precomputed) queryChunkTo(ctx context.Context, dst [][]float64, seeds []int, cols []int, bw *BatchWorkspace) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	tr := obsv.FromContext(ctx)
	n1, n2 := p.N1, p.N2
	nb := len(cols)
	b1 := bw.b1[:n1*nb]
	for i := range b1 {
		b1[i] = 0
	}
	b2 := bw.b2[:n2*nb]
	for i := range b2 {
		b2[i] = 0
	}
	for k, ii := range cols {
		if pos := p.Perm[seeds[ii]]; pos < n1 {
			b1[pos*nb+k] = 1
		} else {
			b2[(pos-n1)*nb+k] = 1
		}
	}

	var r2 []float64
	if n2 > 0 {
		sw := tr.Start(obsv.SpanForwardSolve)
		h := bw.h[:n2*nb]
		// Forward half, one same-block run at a time: t = U₁⁻¹ L₁⁻¹ b₁
		// restricted to the run's diagonal block (Lemma 1), then the H₂₁
		// product restricted to that block's columns. Hub columns have
		// b₁ = 0, so their H₂₁ contribution is exactly zero.
		for rs := 0; rs < nb; {
			re := rs + 1
			bi := p.chunkBlockOf(seeds[cols[rs]])
			for re < nb && p.chunkBlockOf(seeds[cols[re]]) == bi {
				re++
			}
			g := re - rs
			if bi == len(p.Blocks) { // hub run
				for i := 0; i < n2; i++ {
					row := h[i*nb+rs : i*nb+re]
					for k := range row {
						row[k] = 0
					}
				}
				rs = re
				continue
			}
			lo, hi := p.BlockOffsets[bi], p.BlockOffsets[bi+1]
			// Compact width-g RHS for the run: only the block rows are
			// read by the restricted kernels, so only they are cleared.
			gb := bw.s1[:n1*g]
			for i := lo * g; i < hi*g; i++ {
				gb[i] = 0
			}
			for k := rs; k < re; k++ {
				gb[p.Perm[seeds[cols[k]]]*g+(k-rs)] = 1
			}
			gt := bw.s2[:n1*g]
			p.kern.l1inv.SpMMRange(gt, gb, g, lo, hi)
			p.kern.u1inv.SpMMRange(gb, gt, g, lo, hi)
			gh := bw.ha[:n2*g]
			p.kern.h21.SpMMColRange(gh, gb, g, lo, hi)
			for i := 0; i < n2; i++ {
				copy(h[i*nb+rs:i*nb+re], gh[i*g:(i+1)*g])
			}
			rs = re
		}
		sw.Stop()
		if err := ctx.Err(); err != nil {
			return err
		}
		// Schur stage at full chunk width: y = P(b₂ − H₂₁t), r₂ = U₂⁻¹L₂⁻¹y.
		sw = tr.Start(obsv.SpanSchurSolve)
		for i := range h {
			h[i] = b2[i] - h[i]
		}
		y, spare := h, bw.ha[:n2*nb]
		if p.SPerm != nil {
			for i, src := range p.SPerm {
				copy(spare[i*nb:(i+1)*nb], y[src*nb:(src+1)*nb])
			}
			y, spare = spare, y
		}
		p.kern.l2inv.SpMM(spare, y, nb)
		y, spare = spare, y
		p.kern.u2inv.SpMM(spare, y, nb)
		r2 = spare
		sw.Stop()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	swb := tr.Start(obsv.SpanBackSolve)

	// Back-substitution at full chunk width:
	// r₁ = U₁⁻¹ L₁⁻¹ (b₁ − H₁₂ r₂).
	z := bw.s1[:n1*nb]
	if n2 > 0 {
		p.kern.h12.SpMM(z, r2, nb)
	} else {
		for i := range z {
			z[i] = 0
		}
	}
	for i := range z {
		z[i] = b1[i] - z[i]
	}
	s2 := bw.s2[:n1*nb]
	p.kern.l1inv.SpMM(s2, z, nb)
	p.kern.u1inv.SpMM(z, s2, nb)
	r1 := z

	// Scatter each column back to graph node order and apply the restart
	// scaling, node-major so the permutation array is read once.
	c := p.C
	for node := 0; node < p.N; node++ {
		pos := p.Perm[node]
		if pos < n1 {
			row := r1[pos*nb : (pos+1)*nb]
			for k, ii := range cols {
				dst[ii][node] = row[k] * c
			}
		} else {
			row := r2[(pos-n1)*nb : (pos-n1+1)*nb]
			for k, ii := range cols {
				dst[ii][node] = row[k] * c
			}
		}
	}
	swb.Stop()
	return nil
}

// chunkBlockOf maps a seed to its grouping key: its diagonal-block index,
// or len(Blocks) for hubs.
func (p *Precomputed) chunkBlockOf(seed int) int {
	pos := p.Perm[seed]
	if pos >= p.N1 {
		return len(p.Blocks)
	}
	return p.blockOfPos(pos)
}
