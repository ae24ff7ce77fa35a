package core

import (
	"fmt"
	"sync"
)

// Workspace holds the scratch one block-elimination solve needs, for nb
// right-hand sides at once, in the node-contiguous layout of the sparse
// multi-RHS kernels (row i of a block occupies [i*nb, (i+1)*nb)): one
// full-length block for the permuted right-hand sides, two spoke-length
// (n₁) blocks ping-ponged through the triangular products, and two
// hub-length (n₂) blocks for the Schur-complement stage. A workspace from
// AcquireWorkspace has nb = 1 and holds 3n floats; the batch solver
// acquires its own, nb columns wide. A Workspace is bound to the
// Precomputed it was acquired from and is not safe for concurrent use;
// acquire one per goroutine.
//
// Steady-state queries routed through a Workspace perform zero heap
// allocations: every intermediate of Algorithm 2 lands in one of these
// buffers, and the *ToCtx query methods write the result into
// caller-owned memory.
type Workspace struct {
	nb       int
	full     []float64 // n×nb: permuted right-hand sides (b₁ ‖ b₂)
	s1a, s1b []float64 // n₁×nb scratch, ping-ponged through triangular products
	s2a, s2b []float64 // n₂×nb scratch for the Schur-complement stage

	// Refinement scratch (solveRefinedCtx): permuted RHS, permuted iterate,
	// and residual. Grown lazily on the first refined solve, so plain
	// queries never pay for them; once grown they are pooled with the rest.
	rq, rz, rr []float64
}

// ensureRefine sizes the refinement buffers for an n-dimensional system.
// Idempotent after the first call, so the steady-state refined path stays
// allocation-free.
func (ws *Workspace) ensureRefine(n int) {
	if len(ws.rq) != n {
		ws.rq = make([]float64, n)
		ws.rz = make([]float64, n)
		ws.rr = make([]float64, n)
	}
}

// batchScratchFloats bounds the scratch a batch workspace holds: the chunk
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

// AcquireWorkspace returns a single-vector workspace sized for p, reusing
// a pooled one when available. Release it with ReleaseWorkspace when done;
// a workspace may be reused across many queries.
func (p *Precomputed) AcquireWorkspace() *Workspace {
	return p.acquireWorkspace(1)
}

// acquireWorkspace returns a workspace nb columns wide. Width 1 and the
// batch width each have their own pool.
func (p *Precomputed) acquireWorkspace(nb int) *Workspace {
	if ws, ok := p.pool(nb).Get().(*Workspace); ok {
		return ws
	}
	return &Workspace{
		nb:   nb,
		full: make([]float64, p.N*nb),
		s1a:  make([]float64, p.N1*nb),
		s1b:  make([]float64, p.N1*nb),
		s2a:  make([]float64, p.N2*nb),
		s2b:  make([]float64, p.N2*nb),
	}
}

// pool returns the workspace pool for width nb.
func (p *Precomputed) pool(nb int) *sync.Pool {
	if nb == 1 {
		return &p.wsPool
	}
	return &p.batchPool
}

// ReleaseWorkspace returns ws to p's pool for reuse. ws must have been
// acquired from p and must not be used after release.
func (p *Precomputed) ReleaseWorkspace(ws *Workspace) {
	if ws == nil {
		return
	}
	if ws.nb < 1 || len(ws.full) != p.N*ws.nb || len(ws.s1a) != p.N1*ws.nb || len(ws.s2a) != p.N2*ws.nb {
		panic(fmt.Sprintf("core: workspace sized %d/%d/%d (nb=%d) released to a %d/%d/%d solver",
			len(ws.full), len(ws.s1a), len(ws.s2a), ws.nb, p.N, p.N1, p.N2))
	}
	p.pool(ws.nb).Put(ws)
}
