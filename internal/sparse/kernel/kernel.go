// Package kernel provides the primitives layer for BEAR's query-time
// linear algebra: one Matrix interface over pluggable cache-aware storage
// layouts, with one product per access pattern — full, row-windowed and
// column-windowed — each over nb right-hand sides, in the spirit of the
// GraphBLAS primitives consolidation (Kepner et al.): a few primitives
// parameterised by operand shape, not one entry point per shape. Every
// query-time product runs through it.
//
// # Layouts
//
//   - csr: the baseline. It runs the product loops straight over a
//     sparse.CSR's arrays, and every other layout is verified against it.
//   - sell: SELL-C-σ (sliced ELLPACK, C=8, σ=C). Rows are processed in
//     slices of 8, sorted by length within the slice, entries stored
//     column-position-major so the 8 accumulators advance in lockstep.
//     Only the full single-vector product runs natively; every other
//     product runs the csr loops.
//
// # Determinism contract
//
// Every layout returns results bit-identical to the csr loops: each output
// row is accumulated in ascending stored-column order, the order
// sparse.(*CSR).MulVecTo uses.
package kernel

import "sync/atomic"

// Matrix is the kernel-layer view of a sparse matrix. Operands hold nb
// right-hand sides node-contiguously: x[col*nb+t] is column t of logical
// row col, so len(x) = cols·nb and len(y) = rows·nb. x is never modified;
// y is fully overwritten, except that MulRows leaves rows outside its
// window untouched. Every product panics on nb ≤ 0, a mis-sized operand
// or a window outside the matrix.
type Matrix interface {
	// Layout names the storage layout ("csr", "sell").
	Layout() string

	// Mul computes Y = M·X.
	Mul(y, x []float64, nb int)
	// MulRows computes rows [lo, hi) of M·X into y[lo*nb:hi*nb]; other
	// rows of y are left untouched.
	MulRows(y, x []float64, nb, lo, hi int)
	// MulCols computes Y = M[:, lo:hi]·X using only stored columns in
	// [lo, hi); rows of X outside the window are ignored. All rows of y
	// are written.
	MulCols(y, x []float64, nb, lo, hi int)
}

// Layout selection and call counters, exposed for the server's
// bear_kernel_* metrics. All counters are monotone and safe for concurrent
// use. Each product call raises exactly one call counter by one, on the
// layout it was called on: spmv for nb = 1, spmm for nb > 1.
type layoutStats struct {
	selected atomic.Uint64 // matrices constructed with this layout
	spmv     atomic.Uint64 // single-vector products
	spmm     atomic.Uint64 // multi-vector products
}

// count records one product over nb right-hand sides.
func (s *layoutStats) count(nb int) {
	if nb == 1 {
		s.spmv.Add(1)
	} else {
		s.spmm.Add(1)
	}
}

const (
	layoutCSR  = "csr"
	layoutSELL = "sell"
)

var csrStats, sellStats layoutStats

// Layouts lists every layout name that Stats reports, in display order.
func Layouts() []string {
	return []string{layoutCSR, layoutSELL}
}

// Stats returns the cumulative selection and call counters for a layout.
// Unknown layouts report zeros.
func Stats(layout string) (selected, spmv, spmm uint64) {
	var s *layoutStats
	switch layout {
	case layoutCSR:
		s = &csrStats
	case layoutSELL:
		s = &sellStats
	default:
		return 0, 0, 0
	}
	return s.selected.Load(), s.spmv.Load(), s.spmm.Load()
}
