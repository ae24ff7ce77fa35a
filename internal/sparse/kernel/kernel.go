// Package kernel provides the primitives layer for BEAR's query-time
// linear algebra: one Matrix interface (SpMV, SpMM, ranged and
// column-ranged variants, fused residual) over pluggable cache-aware
// storage layouts, in the spirit of the GraphBLAS primitives consolidation
// (Kepner et al.). Every query-time product runs through it.
//
// # Layouts
//
//   - csr: the baseline. It runs the product loops straight over a
//     sparse.CSR's arrays, and every other layout is verified against it.
//   - sell: SELL-C-σ (sliced ELLPACK, C=8, σ=C). Rows are processed in
//     slices of 8, sorted by length within the slice, entries stored
//     column-position-major so the 8 accumulators advance in lockstep.
//     Only the full SpMV runs natively; every other product runs the csr
//     loops.
//
// # Determinism contract
//
// Every layout returns results bit-identical to the csr loops: each output
// row is accumulated in ascending stored-column order, the order
// sparse.(*CSR).MulVecTo uses.
package kernel

import "sync/atomic"

// Matrix is the kernel-layer view of a sparse matrix. y/r are fully
// overwritten outside the documented row window; x is never modified.
// Multi-vector (SpMM) operands are node-contiguous: x[col*nb+t] holds
// column t of logical row col.
type Matrix interface {
	// Layout names the storage layout ("csr", "sell").
	Layout() string

	// SpMV computes y = M·x. len(y) = rows, len(x) = cols.
	SpMV(y, x []float64)
	// SpMVRange computes rows [lo, hi) of M·x into y[lo:hi]; other rows of
	// y are left untouched.
	SpMVRange(y, x []float64, lo, hi int)
	// SpMVColRange computes y = M[:, lo:hi]·x using only stored columns in
	// [lo, hi); x entries outside the window are ignored. All rows of y
	// are written.
	SpMVColRange(y, x []float64, lo, hi int)

	// SpMM computes Y = M·X for nb node-contiguous right-hand sides.
	SpMM(y, x []float64, nb int)
	// SpMMRange computes rows [lo, hi) of M·X.
	SpMMRange(y, x []float64, nb, lo, hi int)
	// SpMMColRange computes Y = M[:, lo:hi]·X over stored columns in
	// [lo, hi) only.
	SpMMColRange(y, x []float64, nb, lo, hi int)

	// Residual computes r = q − M·x fused in one pass. r may alias q but
	// not x.
	Residual(r, q, x []float64)
}

// Layout selection and call counters, exposed for the server's
// bear_kernel_* metrics. All counters are monotone and safe for concurrent
// use. Each Matrix method call raises exactly one call counter by one: the
// one of the layout it was called on.
type layoutStats struct {
	selected atomic.Uint64 // matrices constructed with this layout
	spmv     atomic.Uint64 // SpMV-family calls (incl. ranged variants)
	spmm     atomic.Uint64 // SpMM-family calls (incl. ranged variants)
}

const (
	layoutCSR  = "csr"
	layoutSELL = "sell"
)

var stats = map[string]*layoutStats{
	layoutCSR:  new(layoutStats),
	layoutSELL: new(layoutStats),
}

// Layouts lists every layout name that Stats reports, in display order.
func Layouts() []string {
	return []string{layoutCSR, layoutSELL}
}

// Stats returns the cumulative selection and call counters for a layout.
// Unknown layouts report zeros.
func Stats(layout string) (selected, spmv, spmm uint64) {
	s, ok := stats[layout]
	if !ok {
		return 0, 0, 0
	}
	return s.selected.Load(), s.spmv.Load(), s.spmm.Load()
}

func statSelected(layout string) { stats[layout].selected.Add(1) }
func statSpMV(layout string)     { stats[layout].spmv.Add(1) }
func statSpMM(layout string)     { stats[layout].spmm.Add(1) }
