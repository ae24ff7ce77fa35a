package sparse

import (
	"fmt"
	"sort"
)

// Mul computes the sparse product C = A B using Gustavson's row-wise
// algorithm. The result keeps explicit zeros out (exact cancellations are
// stored; callers can Prune if needed).
func Mul(a, b *CSR) *CSR {
	if a.C != b.R {
		panic(fmt.Sprintf("sparse: Mul shape mismatch %dx%d * %dx%d", a.R, a.C, b.R, b.C))
	}
	out := &CSR{R: a.R, C: b.C, RowPtr: make([]int, a.R+1)}
	// Sparse accumulator: dense value buffer + occupancy marks.
	acc := make([]float64, b.C)
	mark := make([]int, b.C)
	for i := range mark {
		mark[i] = -1
	}
	var rowCols []int
	for i := 0; i < a.R; i++ {
		rowCols = rowCols[:0]
		for ka := a.RowPtr[i]; ka < a.RowPtr[i+1]; ka++ {
			j := a.ColIdx[ka]
			av := a.Val[ka]
			for kb := b.RowPtr[j]; kb < b.RowPtr[j+1]; kb++ {
				col := b.ColIdx[kb]
				if mark[col] != i {
					mark[col] = i
					acc[col] = 0
					rowCols = append(rowCols, col)
				}
				acc[col] += av * b.Val[kb]
			}
		}
		sort.Ints(rowCols)
		for _, col := range rowCols {
			out.ColIdx = append(out.ColIdx, col)
			out.Val = append(out.Val, acc[col])
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}
