package kernel

import (
	"fmt"

	"bear/internal/sparse"
)

// CSR is the baseline layout: the product loops run straight over a
// sparse.CSR's arrays, accumulating each row in ascending stored-column
// order. Each product branches on nb once, at its row loop: one
// right-hand side runs a plain dot product per row, more run the
// register-tiled mulRowTiled. SELL calls the unexported loops directly,
// so a call on it counts only against its own layout.
type CSR struct {
	m *sparse.CSR
}

// NewCSR wraps m without copying.
func NewCSR(m *sparse.CSR) *CSR { return &CSR{m: m} }

func (k *CSR) Layout() string { return layoutCSR }

func (k *CSR) Mul(y, x []float64, nb int) {
	csrStats.count(nb)
	k.mulRows("Mul", y, x, nb, 0, k.m.R)
}

func (k *CSR) MulRows(y, x []float64, nb, lo, hi int) {
	csrStats.count(nb)
	k.mulRows("MulRows", y, x, nb, lo, hi)
}

func (k *CSR) MulCols(y, x []float64, nb, lo, hi int) {
	csrStats.count(nb)
	k.mulCols("MulCols", y, x, nb, lo, hi)
}

// checkShape panics unless nb is positive and x and y hold nb right-hand
// sides of M's columns and rows.
func (k *CSR) checkShape(op string, y, x []float64, nb int) {
	m := k.m
	if nb <= 0 {
		panic(fmt.Sprintf("kernel: %s with %d right-hand sides", op, nb))
	}
	if len(x) != m.C*nb || len(y) != m.R*nb {
		panic(fmt.Sprintf("kernel: %s shape mismatch: M is %dx%d, nb=%d, len(x)=%d, len(y)=%d",
			op, m.R, m.C, nb, len(x), len(y)))
	}
}

// checkWindow panics unless [lo, hi) is a window of n rows or columns.
func checkWindow(op, what string, lo, hi, n int) {
	if lo < 0 || hi > n || lo > hi {
		panic(fmt.Sprintf("kernel: %s %s [%d,%d) out of %d", op, what, lo, hi, n))
	}
}

// mulRows computes rows [lo, hi) of Y = M·X, writing only y[lo*nb:hi*nb].
// The row window is what the BEAR solves use on block-diagonal factors:
// when X is supported on one diagonal block, only that block's rows of
// the product can be nonzero (Lemma 1 of the paper), so the remaining
// rows need not be computed at all.
func (k *CSR) mulRows(op string, y, x []float64, nb, lo, hi int) {
	m := k.m
	k.checkShape(op, y, x, nb)
	checkWindow(op, "rows", lo, hi, m.R)
	if nb == 1 {
		// Bounding the loop by len(y) keeps y's bounds check, and a
		// register, out of the row loop.
		y := y[:hi]
		for i := lo; i < len(y); i++ {
			var s float64
			ks, ke := m.RowPtr[i], m.RowPtr[i+1]
			val := m.Val[ks:ke]
			col := m.ColIdx[ks:ke:ke]
			for j, v := range val {
				s += v * x[col[j]]
			}
			y[i] = s
		}
		return
	}
	for i := lo; i < hi; i++ {
		mulRowTiled(y[i*nb:(i+1)*nb:(i+1)*nb], x, m.Val, m.ColIdx, nb, m.RowPtr[i], m.RowPtr[i+1])
	}
}

// mulCols computes Y = M[:, lo:hi]·X[lo:hi]: every row of Y is written,
// but each row's accumulation visits only the stored entries whose column
// falls in [lo, hi) (colWindow), then runs mulRows's loops over them.
// When X is exactly zero outside [lo, hi) the result is bit-identical to
// the full product: the nonzero terms and their order match, and every
// row accumulates from +0, which a skipped ±0 term leaves unchanged.
func (k *CSR) mulCols(op string, y, x []float64, nb, lo, hi int) {
	m := k.m
	k.checkShape(op, y, x, nb)
	checkWindow(op, "cols", lo, hi, m.C)
	if nb == 1 {
		y := y[:m.R]
		for i := range y {
			ps, pe := k.colWindow(i, lo, hi)
			var s float64
			val := m.Val[ps:pe]
			col := m.ColIdx[ps:pe:pe]
			for j, v := range val {
				s += v * x[col[j]]
			}
			y[i] = s
		}
		return
	}
	for i := 0; i < m.R; i++ {
		ps, pe := k.colWindow(i, lo, hi)
		mulRowTiled(y[i*nb:(i+1)*nb:(i+1)*nb], x, m.Val, m.ColIdx, nb, ps, pe)
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

// mulRowTiled computes one output row of a multi-RHS product: for each
// right-hand side t, row[t] = Σ_p val[p]·x[colIdx[p]*nb+t] over stored
// entries [ks, ke). One pass over the row's entries serves eight, four or
// two right-hand sides at a time, with that many scalar accumulators, so
// the matrix is read once per register tile instead of once per
// right-hand side — the whole win of batching, since the factors are far
// larger than the vectors — and the output row is written exactly once.
// (Sweeping all nb outputs per stored entry instead issues nb cache
// stores per entry, which costs as much as the nb traversals it saves.)
// Per right-hand side the entry order matches the single-vector loop, so
// each output is bit-identical to it.
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
