package sparse

import (
	"fmt"
	"math"
)

// MulVec computes y = A x and returns y as a new slice.
func (m *CSR) MulVec(x []float64) []float64 {
	y := make([]float64, m.R)
	m.MulVecTo(y, x)
	return y
}

// MulVecTo computes y = A x into the provided slice, which must have
// length m.R. x must have length m.C.
func (m *CSR) MulVecTo(y, x []float64) {
	if len(x) != m.C || len(y) != m.R {
		panic(fmt.Sprintf("sparse: MulVec shape mismatch: A is %dx%d, len(x)=%d, len(y)=%d", m.R, m.C, len(x), len(y)))
	}
	for i := 0; i < m.R; i++ {
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

// MulVec computes y = A x and returns y as a new slice.
func (m *CSC) MulVec(x []float64) []float64 {
	y := make([]float64, m.R)
	m.MulVecTo(y, x)
	return y
}

// MulVecTo computes y = A x into the provided slice (scatter by column).
func (m *CSC) MulVecTo(y, x []float64) {
	if len(x) != m.C || len(y) != m.R {
		panic(fmt.Sprintf("sparse: MulVec shape mismatch: A is %dx%d, len(x)=%d, len(y)=%d", m.R, m.C, len(x), len(y)))
	}
	for i := range y {
		y[i] = 0
	}
	for j := 0; j < m.C; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			y[m.RowIdx[k]] += m.Val[k] * xj
		}
	}
}

// Scale multiplies every stored entry by a, in place, and returns m.
func (m *CSR) Scale(a float64) *CSR {
	for i := range m.Val {
		m.Val[i] *= a
	}
	return m
}

// Scale multiplies every stored entry by a, in place, and returns m.
func (m *CSC) Scale(a float64) *CSC {
	for i := range m.Val {
		m.Val[i] *= a
	}
	return m
}

// Add returns a + b. Shapes must match.
func Add(a, b *CSR) *CSR { return addScaled(a, b, 1) }

// Sub returns a - b. Shapes must match.
func Sub(a, b *CSR) *CSR { return addScaled(a, b, -1) }

func addScaled(a, b *CSR, beta float64) *CSR {
	if a.R != b.R || a.C != b.C {
		panic(fmt.Sprintf("sparse: add shape mismatch %dx%d vs %dx%d", a.R, a.C, b.R, b.C))
	}
	out := &CSR{R: a.R, C: a.C, RowPtr: make([]int, a.R+1)}
	out.ColIdx = make([]int, 0, a.NNZ()+b.NNZ())
	out.Val = make([]float64, 0, a.NNZ()+b.NNZ())
	for i := 0; i < a.R; i++ {
		ka, ea := a.RowPtr[i], a.RowPtr[i+1]
		kb, eb := b.RowPtr[i], b.RowPtr[i+1]
		for ka < ea || kb < eb {
			switch {
			case kb >= eb || (ka < ea && a.ColIdx[ka] < b.ColIdx[kb]):
				out.ColIdx = append(out.ColIdx, a.ColIdx[ka])
				out.Val = append(out.Val, a.Val[ka])
				ka++
			case ka >= ea || b.ColIdx[kb] < a.ColIdx[ka]:
				out.ColIdx = append(out.ColIdx, b.ColIdx[kb])
				out.Val = append(out.Val, beta*b.Val[kb])
				kb++
			default:
				out.ColIdx = append(out.ColIdx, a.ColIdx[ka])
				out.Val = append(out.Val, a.Val[ka]+beta*b.Val[kb])
				ka++
				kb++
			}
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}

// Drop removes stored entries with |v| < tol and returns a new matrix.
// This is the BEAR-Approx sparsification step (Algorithm 1, line 9).
func (m *CSR) Drop(tol float64) *CSR {
	out := &CSR{R: m.R, C: m.C, RowPtr: make([]int, m.R+1)}
	out.ColIdx = make([]int, 0, m.NNZ())
	out.Val = make([]float64, 0, m.NNZ())
	for i := 0; i < m.R; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if math.Abs(m.Val[k]) >= tol {
				out.ColIdx = append(out.ColIdx, m.ColIdx[k])
				out.Val = append(out.Val, m.Val[k])
			}
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}

// Drop removes stored entries with |v| < tol and returns a new matrix.
func (m *CSC) Drop(tol float64) *CSC {
	t := &CSR{R: m.C, C: m.R, RowPtr: m.ColPtr, ColIdx: m.RowIdx, Val: m.Val}
	d := t.Drop(tol)
	return &CSC{R: m.R, C: m.C, ColPtr: d.RowPtr, RowIdx: d.ColIdx, Val: d.Val}
}

// Prune removes exactly-zero stored entries.
func (m *CSR) Prune() *CSR { return m.Drop(math.SmallestNonzeroFloat64) }

// Row returns the column indices and values of row i, aliasing internal
// storage. Callers must not modify the returned slices.
func (m *CSR) Row(i int) (cols []int, vals []float64) {
	if i < 0 || i >= m.R {
		panic(fmt.Sprintf("sparse: row %d out of %d", i, m.R))
	}
	return m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]], m.Val[m.RowPtr[i]:m.RowPtr[i+1]]
}

// Col returns the row indices and values of column j, aliasing internal
// storage. Callers must not modify the returned slices.
func (m *CSC) Col(j int) (rows []int, vals []float64) {
	if j < 0 || j >= m.C {
		panic(fmt.Sprintf("sparse: col %d out of %d", j, m.C))
	}
	return m.RowIdx[m.ColPtr[j]:m.ColPtr[j+1]], m.Val[m.ColPtr[j]:m.ColPtr[j+1]]
}

// Dense expands the matrix into a row-major dense buffer of length R*C.
func (m *CSR) Dense() []float64 {
	out := make([]float64, m.R*m.C)
	for i := 0; i < m.R; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			out[i*m.C+m.ColIdx[k]] = m.Val[k]
		}
	}
	return out
}

// Dense expands the matrix into a row-major dense buffer of length R*C.
func (m *CSC) Dense() []float64 {
	out := make([]float64, m.R*m.C)
	for j := 0; j < m.C; j++ {
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			out[m.RowIdx[k]*m.C+j] = m.Val[k]
		}
	}
	return out
}

// FromDense builds a CSR from a row-major dense buffer, storing entries
// with |v| > 0.
func FromDense(r, c int, data []float64) *CSR {
	if len(data) != r*c {
		panic(fmt.Sprintf("sparse: FromDense needs %d values, got %d", r*c, len(data)))
	}
	m := &CSR{R: r, C: c, RowPtr: make([]int, r+1)}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if v := data[i*c+j]; v != 0 {
				m.ColIdx = append(m.ColIdx, j)
				m.Val = append(m.Val, v)
			}
		}
		m.RowPtr[i+1] = len(m.ColIdx)
	}
	return m
}
