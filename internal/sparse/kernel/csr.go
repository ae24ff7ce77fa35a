package kernel

import (
	"fmt"

	"bear/internal/sparse"
)

// CSR is the baseline layout: the product loops run straight over a
// sparse.CSR's arrays, accumulating each row in ascending stored-column
// order. The full SpMV is sparse.(*CSR).MulVecTo itself; the ranged,
// column-windowed, multi-RHS and residual loops live here. SELL calls the
// unexported loops directly, so a call on it counts only against its own
// layout.
type CSR struct {
	m *sparse.CSR
}

// NewCSR wraps m without copying.
func NewCSR(m *sparse.CSR) *CSR { return &CSR{m: m} }

func (k *CSR) Layout() string { return layoutCSR }

func (k *CSR) SpMV(y, x []float64) {
	statSpMV(layoutCSR)
	k.m.MulVecTo(y, x)
}

func (k *CSR) SpMVRange(y, x []float64, lo, hi int) {
	statSpMV(layoutCSR)
	k.spmvRange(y, x, lo, hi)
}

func (k *CSR) SpMVColRange(y, x []float64, lo, hi int) {
	statSpMV(layoutCSR)
	k.spmvColRange(y, x, lo, hi)
}

func (k *CSR) SpMM(y, x []float64, nb int) {
	statSpMM(layoutCSR)
	k.spmmRange(y, x, nb, 0, k.m.R)
}

func (k *CSR) SpMMRange(y, x []float64, nb, lo, hi int) {
	statSpMM(layoutCSR)
	k.spmmRange(y, x, nb, lo, hi)
}

func (k *CSR) SpMMColRange(y, x []float64, nb, lo, hi int) {
	statSpMM(layoutCSR)
	k.spmmColRange(y, x, nb, lo, hi)
}

func (k *CSR) Residual(r, q, x []float64) {
	statSpMV(layoutCSR)
	k.residual(r, q, x)
}

// spmvRange computes rows [lo, hi) of y = A x, writing only y[lo:hi] and
// leaving the rest of y untouched. It is the row-restricted loop the BEAR
// single-seed fast path uses on block-diagonal factors: when x is
// supported on one diagonal block, only that block's rows of the product
// can be nonzero (Lemma 1 of the paper), so the remaining rows need not be
// computed at all. For the rows it does compute, the accumulation order is
// identical to MulVecTo, so the written entries are bit-identical.
func (k *CSR) spmvRange(y, x []float64, lo, hi int) {
	m := k.m
	if len(x) != m.C || len(y) != m.R {
		panic(fmt.Sprintf("kernel: SpMVRange shape mismatch: A is %dx%d, len(x)=%d, len(y)=%d", m.R, m.C, len(x), len(y)))
	}
	if lo < 0 || hi > m.R || lo > hi {
		panic(fmt.Sprintf("kernel: SpMVRange rows [%d,%d) out of %d", lo, hi, m.R))
	}
	for i := lo; i < hi; i++ {
		var s float64
		ks, ke := m.RowPtr[i], m.RowPtr[i+1]
		val := m.Val[ks:ke]
		col := m.ColIdx[ks:ke:ke]
		for j, v := range val {
			s += v * x[col[j]]
		}
		y[i] = s
	}
}

// spmvColRange computes y = A[:, lo:hi] · x[lo:hi]: every row of y is
// written, but each row's accumulation visits only the stored entries whose
// column index falls in [lo, hi), located by binary search within the
// row's sorted column indices, and then runs spmvRange's slice loop over
// them. When x is exactly zero outside [lo, hi) the result is bit-identical
// to MulVecTo: the nonzero terms and their order match, and every row
// accumulates from +0, which a skipped ±0 term leaves unchanged.
func (k *CSR) spmvColRange(y, x []float64, lo, hi int) {
	m := k.m
	if len(x) != m.C || len(y) != m.R {
		panic(fmt.Sprintf("kernel: SpMVColRange shape mismatch: A is %dx%d, len(x)=%d, len(y)=%d", m.R, m.C, len(x), len(y)))
	}
	if lo < 0 || hi > m.C || lo > hi {
		panic(fmt.Sprintf("kernel: SpMVColRange cols [%d,%d) out of %d", lo, hi, m.C))
	}
	for i := 0; i < m.R; i++ {
		ps, pe := k.colWindow(i, lo, hi)
		var s float64
		val := m.Val[ps:pe]
		col := m.ColIdx[ps:pe:pe]
		for j, v := range val {
			s += v * x[col[j]]
		}
		y[i] = s
	}
}

// colWindow returns the stored-entry range [ps, pe) of row i whose columns
// fall in [lo, hi). The row's first and last column settle an empty
// window or an end the row never crosses; only a crossed end is located
// by binary search over the row's sorted column indices.
func (k *CSR) colWindow(i, lo, hi int) (ps, pe int) {
	m := k.m
	ps, pe = m.RowPtr[i], m.RowPtr[i+1]
	cols := m.ColIdx
	if ps == pe || cols[pe-1] < lo || cols[ps] >= hi {
		return ps, ps
	}
	if cols[ps] < lo {
		ps = searchCol(cols, ps, pe, lo)
	}
	if cols[pe-1] >= hi {
		pe = searchCol(cols, ps, pe, hi)
	}
	return ps, pe
}

// searchCol returns the first index in [a, b) whose column is at least c,
// or b; cols[a:b] is sorted and duplicate-free. Such columns grow by at
// least one per index, so the answer lies in
// [b−1−(cols[b−1]−c), a+(c−cols[a])], and the binary search runs only
// over that range: on a dense row it is one index wide.
func searchCol(cols []int, a, b, c int) int {
	if a == b || cols[a] >= c {
		return a
	}
	if cols[b-1] < c {
		return b
	}
	lo, hi := max(a, b-1-(cols[b-1]-c)), min(b, a+(c-cols[a]))
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if cols[m] < c {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Multi-RHS (SpMM) loops: one traversal of the CSR structure applied to a
// block of nb right-hand sides at once. The RHS block X is stored
// node-contiguously — the nb values for matrix column j occupy
// x[j*nb:(j+1)*nb]. Compared with nb single-vector products this reads
// RowPtr/ColIdx/Val once per register tile instead of nb times, which is
// the whole win: the factor matrices are far larger than the vectors, so
// the per-seed path is bandwidth-bound on re-reading them.
//
// The inner loop is register-tiled: each row's output is computed eight,
// four or two right-hand sides at a time with that many scalar
// accumulators, so a stored entry costs one multiply-add per right-hand
// side on registers and the output row is written exactly once. The naive layout-order alternative — sweep all nb
// outputs per stored entry — issues nb cache stores per entry, which costs
// as much as the nb separate traversals it was meant to save.
//
// For each right-hand side the accumulation order over a row's stored
// entries is identical to MulVecTo, so every output column is bit-identical
// to the corresponding single-vector product.

// spmmRange computes rows [lo, hi) of Y = A X for nb right-hand sides,
// writing only y[lo*nb:hi*nb] and leaving the rest of y untouched. x must
// have length m.C*nb and y length m.R*nb. The blocked batch solver uses the
// row window on block-diagonal factors, where only the seeds' diagonal
// block can be nonzero (Lemma 1 of the paper).
func (k *CSR) spmmRange(y, x []float64, nb, lo, hi int) {
	m := k.m
	if nb <= 0 {
		panic(fmt.Sprintf("kernel: SpMM with %d right-hand sides", nb))
	}
	if len(x) != m.C*nb || len(y) != m.R*nb {
		panic(fmt.Sprintf("kernel: SpMM shape mismatch: A is %dx%d, nb=%d, len(x)=%d, len(y)=%d",
			m.R, m.C, nb, len(x), len(y)))
	}
	if lo < 0 || hi > m.R || lo > hi {
		panic(fmt.Sprintf("kernel: SpMMRange rows [%d,%d) out of %d", lo, hi, m.R))
	}
	for i := lo; i < hi; i++ {
		ks, ke := m.RowPtr[i], m.RowPtr[i+1]
		mulRowTiled(y[i*nb:(i+1)*nb:(i+1)*nb], x, m.Val, m.ColIdx, nb, ks, ke)
	}
}

// mulRowTiled computes one output row of a multi-RHS product: for each
// right-hand side t, row[t] = Σ_p val[p]·x[colIdx[p]*nb+t] over stored
// entries [ks, ke), accumulating eight, four or two right-hand sides per
// entry pass in registers. Per column the entry order matches MulVecTo, so each output
// is bit-identical to the single-vector product.
func mulRowTiled(row, x, val []float64, colIdx []int, nb, ks, ke int) {
	// Ranging over the row's own entries, sliced once, keeps the bounds
	// checks on val and colIdx out of the entry loops.
	vals := val[ks:ke]
	cols := colIdx[ks:ke:ke]
	t := 0
	for ; t+8 <= nb; t += 8 {
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for i, v := range vals {
			xr := x[cols[i]*nb+t:]
			xr = xr[:8:8]
			a0 += v * xr[0]
			a1 += v * xr[1]
			a2 += v * xr[2]
			a3 += v * xr[3]
			a4 += v * xr[4]
			a5 += v * xr[5]
			a6 += v * xr[6]
			a7 += v * xr[7]
		}
		row[t] = a0
		row[t+1] = a1
		row[t+2] = a2
		row[t+3] = a3
		row[t+4] = a4
		row[t+5] = a5
		row[t+6] = a6
		row[t+7] = a7
	}
	for ; t+4 <= nb; t += 4 {
		var a0, a1, a2, a3 float64
		for i, v := range vals {
			xr := x[cols[i]*nb+t:]
			xr = xr[:4:4]
			a0 += v * xr[0]
			a1 += v * xr[1]
			a2 += v * xr[2]
			a3 += v * xr[3]
		}
		row[t] = a0
		row[t+1] = a1
		row[t+2] = a2
		row[t+3] = a3
	}
	for ; t+2 <= nb; t += 2 {
		var a0, a1 float64
		for i, v := range vals {
			xr := x[cols[i]*nb+t:]
			xr = xr[:2:2]
			a0 += v * xr[0]
			a1 += v * xr[1]
		}
		row[t] = a0
		row[t+1] = a1
	}
	for ; t < nb; t++ {
		var acc float64
		for i, v := range vals {
			acc += v * x[cols[i]*nb+t]
		}
		row[t] = acc
	}
}

// spmmColRange computes Y = A[:, lo:hi] · X[lo:hi] for nb right-hand
// sides: every row of Y is written, but each row's accumulation visits only
// the stored entries whose column index falls in [lo, hi), located by
// binary search within the row's sorted column indices. It is the
// multi-RHS analogue of spmvColRange, with the same bit-identity
// guarantee when X is exactly zero outside [lo, hi).
func (k *CSR) spmmColRange(y, x []float64, nb, lo, hi int) {
	m := k.m
	if nb <= 0 {
		panic(fmt.Sprintf("kernel: SpMMColRange with %d right-hand sides", nb))
	}
	if len(x) != m.C*nb || len(y) != m.R*nb {
		panic(fmt.Sprintf("kernel: SpMMColRange shape mismatch: A is %dx%d, nb=%d, len(x)=%d, len(y)=%d",
			m.R, m.C, nb, len(x), len(y)))
	}
	if lo < 0 || hi > m.C || lo > hi {
		panic(fmt.Sprintf("kernel: SpMMColRange cols [%d,%d) out of %d", lo, hi, m.C))
	}
	for i := 0; i < m.R; i++ {
		ps, pe := k.colWindow(i, lo, hi)
		mulRowTiled(y[i*nb:(i+1)*nb:(i+1)*nb], x, m.Val, m.ColIdx, nb, ps, pe)
	}
}

// residual computes r = q − H·x in one fused pass: each row's H·x dot
// product is accumulated and immediately subtracted from q, so the product
// is never materialized and the loop allocates nothing. r must have
// length h.R and x length h.C; r may alias q (each r[i] is written after
// row i's accumulation reads only x) but must not alias x.
//
// This is the residual of BEAR's iterative-refinement loop: with x an
// approximate solve of H·x = q from the BEAR-Approx factors, r is the
// defect the next Richardson sweep corrects. The per-row accumulation
// order matches MulVecTo, so residual magnitudes are reproducible
// bit-for-bit across the plain and fused paths.
func (k *CSR) residual(r, q, x []float64) {
	h := k.m
	if len(x) != h.C || len(r) != h.R || len(q) != h.R {
		panic(fmt.Sprintf("kernel: Residual shape mismatch: H is %dx%d, len(x)=%d, len(q)=%d, len(r)=%d",
			h.R, h.C, len(x), len(q), len(r)))
	}
	for i := 0; i < h.R; i++ {
		var s float64
		ks, ke := h.RowPtr[i], h.RowPtr[i+1]
		val := h.Val[ks:ke]
		col := h.ColIdx[ks:ke:ke]
		for j, v := range val {
			s += v * x[col[j]]
		}
		r[i] = q[i] - s
	}
}
