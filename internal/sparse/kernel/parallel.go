package kernel

import (
	"runtime"

	"bear/internal/sparse"
)

// minParallelNNZ is the stored-entry count below which wrapping a matrix
// in Parallel is refused by the selection logic: a pool handoff costs on
// the order of a few microseconds, which a small SpMV cannot amortize.
const minParallelNNZ = 1 << 15

// Parallel row-partitions the csr loops of SpMV/SpMM over the shared
// persistent worker pool. Partition boundaries are nnz-balanced cuts
// computed once at construction from the matrix and the worker count —
// each output row belongs to exactly one partition regardless of
// scheduling, and within a partition the csr row loop runs unchanged, so
// results stay bit-identical for any worker count.
//
// Ranged and column-windowed products and Residual run the csr loops
// sequentially: BEAR only calls them on small windows or with
// dependencies that do not row-partition.
type Parallel struct {
	src  *CSR
	cuts []int
}

// NewParallel builds the row partitions of m for workers parallel lanes
// (<= 0 selects GOMAXPROCS).
func NewParallel(m *sparse.CSR, workers int) *Parallel {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > m.R && m.R > 0 {
		workers = m.R
	}
	if workers < 1 {
		workers = 1
	}
	return &Parallel{src: NewCSR(m), cuts: sparse.SplitNNZ(m.RowPtr, workers)}
}

func (p *Parallel) Layout() string { return layoutParallel }

func (p *Parallel) SpMV(y, x []float64) {
	statSpMV(layoutParallel)
	parts := len(p.cuts) - 1
	sparse.DefaultPool().Run(parts, func(w int) {
		if p.cuts[w] < p.cuts[w+1] {
			p.src.spmvRange(y, x, p.cuts[w], p.cuts[w+1])
		}
	})
}

func (p *Parallel) SpMVRange(y, x []float64, lo, hi int) {
	statSpMV(layoutParallel)
	// Ranged calls target single spoke blocks on the fast path — too small
	// to fan out again.
	p.src.spmvRange(y, x, lo, hi)
}

func (p *Parallel) SpMVColRange(y, x []float64, lo, hi int) {
	statSpMV(layoutParallel)
	p.src.spmvColRange(y, x, lo, hi)
}

func (p *Parallel) SpMM(y, x []float64, nb int) {
	statSpMM(layoutParallel)
	parts := len(p.cuts) - 1
	sparse.DefaultPool().Run(parts, func(w int) {
		if p.cuts[w] < p.cuts[w+1] {
			p.src.spmmRange(y, x, nb, p.cuts[w], p.cuts[w+1])
		}
	})
}

func (p *Parallel) SpMMRange(y, x []float64, nb, lo, hi int) {
	statSpMM(layoutParallel)
	p.src.spmmRange(y, x, nb, lo, hi)
}

func (p *Parallel) SpMMColRange(y, x []float64, nb, lo, hi int) {
	statSpMM(layoutParallel)
	p.src.spmmColRange(y, x, nb, lo, hi)
}

func (p *Parallel) Residual(r, q, x []float64) {
	statSpMV(layoutParallel)
	p.src.residual(r, q, x)
}
