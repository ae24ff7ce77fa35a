package kernel

import (
	"math"

	"bear/internal/sparse"
)

// sellC is the SELL slice height: 8 rows advance in lockstep, matching
// the accumulator count a single core can keep live.
const sellC = 8

// SELL is a SELL-C-σ layout (sliced ELLPACK, C=8, σ=C): rows are grouped
// into slices of 8, sorted by descending length within the slice, and
// entries stored column-position-major so one pass over a slice advances
// eight row accumulators together. Within a row, positions are visited in
// ascending stored-column order — the csr order — so results are
// bit-identical to the csr layout.
//
// Only the full single-vector product is served natively; windowed and
// multi-RHS products run the csr loops over the source, whose
// row-addressed form those access patterns need anyway.
type SELL struct {
	src      *CSR
	rowOrder []int32   // rows slice-by-slice, longest first within a slice
	cntPtr   []int     // per slice: window into colCnt
	colCnt   []int32   // per column position: rows still active
	val      []float64 // entries, column-position-major within each slice
	col      []int32
}

// NewSELL builds the sliced layout over m, copying entries. Returns nil
// when m's column count cannot be narrowed to int32.
func NewSELL(m *sparse.CSR) *SELL {
	if m.C > math.MaxInt32 {
		return nil
	}
	numSlices := (m.R + sellC - 1) / sellC
	k := &SELL{
		src:      NewCSR(m),
		rowOrder: make([]int32, m.R),
		cntPtr:   make([]int, numSlices+1),
		val:      make([]float64, 0, m.NNZ()),
		col:      make([]int32, 0, m.NNZ()),
	}
	rowLen := func(i int32) int { return m.RowPtr[i+1] - m.RowPtr[i] }
	for s := 0; s < numSlices; s++ {
		lo := s * sellC
		hi := lo + sellC
		if hi > m.R {
			hi = m.R
		}
		// Longest row first; rows of equal length keep their order. An
		// insertion sort over at most sellC rows.
		order := k.rowOrder[lo:hi]
		for i := range order {
			row := int32(lo + i)
			j := i
			for ; j > 0 && rowLen(order[j-1]) < rowLen(row); j-- {
				order[j] = order[j-1]
			}
			order[j] = row
		}
		width := 0
		if len(order) > 0 {
			width = rowLen(order[0])
		}
		for p := 0; p < width; p++ {
			cnt := 0
			for _, row := range order {
				if rowLen(row) <= p {
					break // sorted descending: the rest are shorter
				}
				cnt++
				kk := m.RowPtr[row] + p
				k.val = append(k.val, m.Val[kk])
				k.col = append(k.col, int32(m.ColIdx[kk]))
			}
			k.colCnt = append(k.colCnt, int32(cnt))
		}
		k.cntPtr[s+1] = len(k.colCnt)
	}
	return k
}

func (k *SELL) Layout() string { return layoutSELL }

// Mul runs the native slice loop for one right-hand side and the csr
// loop for more.
func (k *SELL) Mul(y, x []float64, nb int) {
	sellStats.count(nb)
	if nb != 1 {
		k.src.mulRows("Mul", y, x, nb, 0, k.src.m.R)
		return
	}
	k.src.checkShape("Mul", y, x, 1)
	cur := 0
	for s := 0; s+1 < len(k.cntPtr); s++ {
		lo := s * sellC
		rows := k.rowOrder[lo:min(lo+sellC, len(y))]
		var a [sellC]float64
		for p := k.cntPtr[s]; p < k.cntPtr[s+1]; p++ {
			if cnt := int(k.colCnt[p]); cnt == sellC {
				v, c := k.val[cur:cur+sellC], k.col[cur:cur+sellC]
				a[0] += v[0] * x[c[0]]
				a[1] += v[1] * x[c[1]]
				a[2] += v[2] * x[c[2]]
				a[3] += v[3] * x[c[3]]
				a[4] += v[4] * x[c[4]]
				a[5] += v[5] * x[c[5]]
				a[6] += v[6] * x[c[6]]
				a[7] += v[7] * x[c[7]]
				cur += sellC
			} else {
				for r := 0; r < cnt; r++ {
					a[r] += k.val[cur] * x[k.col[cur]]
					cur++
				}
			}
		}
		for r, row := range rows {
			y[row] = a[r]
		}
	}
}

func (k *SELL) MulRows(y, x []float64, nb, lo, hi int) {
	sellStats.count(nb)
	k.src.mulRows("MulRows", y, x, nb, lo, hi)
}

func (k *SELL) MulCols(y, x []float64, nb, lo, hi int) {
	sellStats.count(nb)
	k.src.mulCols("MulCols", y, x, nb, lo, hi)
}
