// Package sparse implements the compressed sparse row/column matrix kernel
// that underlies every RWR method in this repository: construction from
// triplets, matrix-vector and matrix-matrix products, permutation,
// submatrix extraction, triangular solves, sparse LU factorization, and
// sparse triangular inversion.
//
// Conventions:
//
//   - Dimension mismatches are programmer errors and panic.
//   - Numerical failures (zero pivots, singular matrices) return errors.
//   - Indices within a row (CSR) or column (CSC) are kept sorted, and
//     duplicates are summed at construction time.
package sparse

import (
	"fmt"
	"sort"
)

// Coord is a single (row, col, value) triplet used to assemble matrices.
type Coord struct {
	Row, Col int
	Val      float64
}

// CSR is a sparse matrix in compressed sparse row format. Row i occupies
// ColIdx[RowPtr[i]:RowPtr[i+1]] and Val[RowPtr[i]:RowPtr[i+1]], with column
// indices sorted ascending within the row.
type CSR struct {
	R, C   int
	RowPtr []int
	ColIdx []int
	Val    []float64
}

// CSC is a sparse matrix in compressed sparse column format. Column j
// occupies RowIdx[ColPtr[j]:ColPtr[j+1]] and Val[ColPtr[j]:ColPtr[j+1]],
// with row indices sorted ascending within the column.
type CSC struct {
	R, C   int
	ColPtr []int
	RowIdx []int
	Val    []float64
}

// NewCSR builds a CSR matrix of the given shape from triplets. Duplicate
// coordinates are summed; entries that sum exactly to zero are kept (callers
// that need them removed can use Prune).
func NewCSR(r, c int, coords []Coord) *CSR {
	checkShape(r, c)
	cs := make([]Coord, len(coords))
	copy(cs, coords)
	for _, e := range cs {
		if e.Row < 0 || e.Row >= r || e.Col < 0 || e.Col >= c {
			panic(fmt.Sprintf("sparse: coord (%d,%d) out of %dx%d", e.Row, e.Col, r, c))
		}
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Row != cs[j].Row {
			return cs[i].Row < cs[j].Row
		}
		return cs[i].Col < cs[j].Col
	})
	m := &CSR{R: r, C: c, RowPtr: make([]int, r+1)}
	m.ColIdx = make([]int, 0, len(cs))
	m.Val = make([]float64, 0, len(cs))
	for i := 0; i < len(cs); {
		j := i + 1
		v := cs[i].Val
		for j < len(cs) && cs[j].Row == cs[i].Row && cs[j].Col == cs[i].Col {
			v += cs[j].Val
			j++
		}
		m.ColIdx = append(m.ColIdx, cs[i].Col)
		m.Val = append(m.Val, v)
		m.RowPtr[cs[i].Row+1]++
		i = j
	}
	for i := 0; i < r; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// NewCSC builds a CSC matrix of the given shape from triplets, summing
// duplicates.
func NewCSC(r, c int, coords []Coord) *CSC {
	// Build the CSR of the transpose, then reinterpret the buffers.
	t := make([]Coord, len(coords))
	for i, e := range coords {
		t[i] = Coord{Row: e.Col, Col: e.Row, Val: e.Val}
	}
	tr := NewCSR(c, r, t)
	return &CSC{R: r, C: c, ColPtr: tr.RowPtr, RowIdx: tr.ColIdx, Val: tr.Val}
}

// Identity returns the n x n identity matrix in CSR form.
func Identity(n int) *CSR {
	checkShape(n, n)
	m := &CSR{R: n, C: n, RowPtr: make([]int, n+1), ColIdx: make([]int, n), Val: make([]float64, n)}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] = i + 1
		m.ColIdx[i] = i
		m.Val[i] = 1
	}
	return m
}

// IdentityCSC returns the n x n identity matrix in CSC form.
func IdentityCSC(n int) *CSC {
	return Identity(n).ToCSC()
}

// NNZ reports the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// NNZ reports the number of stored entries.
func (m *CSC) NNZ() int { return len(m.Val) }

// Bytes estimates the memory footprint of the stored matrix in the
// compressed sparse format used by the paper's space accounting: one 8-byte
// value plus one 8-byte index per entry, plus the pointer array.
func (m *CSR) Bytes() int64 {
	return int64(len(m.Val))*16 + int64(len(m.RowPtr))*8
}

// At returns the entry at (i, j) using binary search within row i.
func (m *CSR) At(i, j int) float64 {
	m.checkIndex(i, j)
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	k := lo + sort.SearchInts(m.ColIdx[lo:hi], j)
	if k < hi && m.ColIdx[k] == j {
		return m.Val[k]
	}
	return 0
}

// At returns the entry at (i, j) using binary search within column j.
func (m *CSC) At(i, j int) float64 {
	if i < 0 || i >= m.R || j < 0 || j >= m.C {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of %dx%d", i, j, m.R, m.C))
	}
	lo, hi := m.ColPtr[j], m.ColPtr[j+1]
	k := lo + sort.SearchInts(m.RowIdx[lo:hi], i)
	if k < hi && m.RowIdx[k] == i {
		return m.Val[k]
	}
	return 0
}

// ToCSC converts to compressed sparse column format.
func (m *CSR) ToCSC() *CSC {
	t := m.Transpose()
	return &CSC{R: m.R, C: m.C, ColPtr: t.RowPtr, RowIdx: t.ColIdx, Val: t.Val}
}

// ToCSR converts to compressed sparse row format.
func (m *CSC) ToCSR() *CSR {
	// The CSC buffers are exactly the CSR buffers of the transpose.
	t := &CSR{R: m.C, C: m.R, RowPtr: m.ColPtr, ColIdx: m.RowIdx, Val: m.Val}
	tt := t.Transpose()
	tt.R, tt.C = m.R, m.C
	return tt
}

// Transpose returns a new CSR holding the transpose of m.
func (m *CSR) Transpose() *CSR {
	t := &CSR{R: m.C, C: m.R, RowPtr: make([]int, m.C+1), ColIdx: make([]int, m.NNZ()), Val: make([]float64, m.NNZ())}
	for _, j := range m.ColIdx {
		t.RowPtr[j+1]++
	}
	for j := 0; j < m.C; j++ {
		t.RowPtr[j+1] += t.RowPtr[j]
	}
	next := make([]int, m.C)
	copy(next, t.RowPtr[:m.C])
	for i := 0; i < m.R; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			p := next[j]
			t.ColIdx[p] = i
			t.Val[p] = m.Val[k]
			next[j]++
		}
	}
	return t
}

// Clone returns a deep copy.
func (m *CSR) Clone() *CSR {
	out := &CSR{R: m.R, C: m.C,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: append([]int(nil), m.ColIdx...),
		Val:    append([]float64(nil), m.Val...)}
	return out
}

// Clone returns a deep copy.
func (m *CSC) Clone() *CSC {
	out := &CSC{R: m.R, C: m.C,
		ColPtr: append([]int(nil), m.ColPtr...),
		RowIdx: append([]int(nil), m.RowIdx...),
		Val:    append([]float64(nil), m.Val...)}
	return out
}

// Coords returns the stored entries as triplets in row-major order.
func (m *CSR) Coords() []Coord {
	out := make([]Coord, 0, m.NNZ())
	for i := 0; i < m.R; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			out = append(out, Coord{Row: i, Col: m.ColIdx[k], Val: m.Val[k]})
		}
	}
	return out
}

// Coords returns the stored entries as triplets in column-major order.
func (m *CSC) Coords() []Coord {
	out := make([]Coord, 0, m.NNZ())
	for j := 0; j < m.C; j++ {
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			out = append(out, Coord{Row: m.RowIdx[k], Col: j, Val: m.Val[k]})
		}
	}
	return out
}

func (m *CSR) checkIndex(i, j int) {
	if i < 0 || i >= m.R || j < 0 || j >= m.C {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of %dx%d", i, j, m.R, m.C))
	}
}

func checkShape(r, c int) {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %dx%d", r, c))
	}
}
