package sparse

import (
	"fmt"
	"sort"
)

// RowSplice describes one row-range replacement for SpliceRows: rows
// [Lo, Lo+Block.R) of the target are replaced by Block's rows, with
// Block's column indices shifted by ColOffset. For a block-diagonal
// factor the natural splice is ColOffset == Lo (the fresh block lands
// back on the diagonal); for a tall cache like U₁⁻¹L₁⁻¹H₁₂ it is 0.
type RowSplice struct {
	Lo        int
	ColOffset int
	Block     *CSR
}

// SpliceRows returns a copy of m with the listed row ranges replaced by
// the splice blocks; rows outside every range are copied verbatim, so
// their stored entries (pattern and bits) are untouched. Ranges must be
// sorted by Lo, non-overlapping, and inside the matrix; shifted column
// indices must stay inside [0, m.C). The receiver is not modified — the
// incremental-rebuild path splices fresh block factors into a factor
// matrix that concurrent queries may still be reading.
func (m *CSR) SpliceRows(splices []RowSplice) *CSR {
	prev := 0
	nnz := 0
	for i, sp := range splices {
		if sp.Block == nil {
			panic(fmt.Sprintf("sparse: SpliceRows splice %d has nil block", i))
		}
		if sp.Lo < prev || sp.Lo+sp.Block.R > m.R {
			panic(fmt.Sprintf("sparse: SpliceRows range [%d,%d) out of order or outside %d rows",
				sp.Lo, sp.Lo+sp.Block.R, m.R))
		}
		if sp.ColOffset < 0 || sp.ColOffset+sp.Block.C > m.C {
			panic(fmt.Sprintf("sparse: SpliceRows columns [%d,%d) outside %d cols",
				sp.ColOffset, sp.ColOffset+sp.Block.C, m.C))
		}
		nnz += sp.Block.NNZ()
		prev = sp.Lo + sp.Block.R
	}
	// Entries kept from m: everything outside the spliced row ranges.
	kept := m.NNZ()
	for _, sp := range splices {
		kept -= m.RowPtr[sp.Lo+sp.Block.R] - m.RowPtr[sp.Lo]
	}
	out := &CSR{
		R: m.R, C: m.C,
		RowPtr: make([]int, m.R+1),
		ColIdx: make([]int, 0, kept+nnz),
		Val:    make([]float64, 0, kept+nnz),
	}
	si := 0
	for i := 0; i < m.R; {
		if si < len(splices) && splices[si].Lo == i {
			sp := splices[si]
			b := sp.Block
			for bi := 0; bi < b.R; bi++ {
				for k := b.RowPtr[bi]; k < b.RowPtr[bi+1]; k++ {
					out.ColIdx = append(out.ColIdx, b.ColIdx[k]+sp.ColOffset)
					out.Val = append(out.Val, b.Val[k])
				}
				out.RowPtr[i+bi+1] = len(out.ColIdx)
			}
			i += b.R
			si++
			continue
		}
		out.ColIdx = append(out.ColIdx, m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]]...)
		out.Val = append(out.Val, m.Val[m.RowPtr[i]:m.RowPtr[i+1]]...)
		out.RowPtr[i+1] = len(out.ColIdx)
		i++
	}
	return out
}

// ReplaceColumns returns a copy of m with every entry in the listed
// columns removed and the replacement coordinates inserted instead. cols
// must be sorted and duplicate-free; every replacement coordinate must
// fall in one of the listed columns (the whole new contents of those
// columns are given, not a delta). Rows outside the listed columns keep
// their stored entries bit-for-bit; within a row the result stays sorted
// by column. The receiver is not modified.
func (m *CSR) ReplaceColumns(cols []int, repl []Coord) *CSR {
	replaced := make([]bool, m.C)
	for i, j := range cols {
		if i > 0 && cols[i-1] >= j {
			panic(fmt.Sprintf("sparse: ReplaceColumns columns not sorted and unique at index %d", i))
		}
		replaced[j] = true
	}
	// Bucket the replacement entries by row, sorted by column within each.
	byRow := make(map[int][]Coord, len(repl))
	for _, c := range repl {
		if c.Row < 0 || c.Row >= m.R || c.Col < 0 || c.Col >= m.C {
			panic(fmt.Sprintf("sparse: ReplaceColumns entry (%d,%d) outside %dx%d", c.Row, c.Col, m.R, m.C))
		}
		if !replaced[c.Col] {
			panic(fmt.Sprintf("sparse: ReplaceColumns entry in column %d, which is not being replaced", c.Col))
		}
		byRow[c.Row] = append(byRow[c.Row], c)
	}
	for _, rs := range byRow {
		sort.Slice(rs, func(a, b int) bool { return rs[a].Col < rs[b].Col })
		for i := 1; i < len(rs); i++ {
			if rs[i-1].Col == rs[i].Col {
				panic(fmt.Sprintf("sparse: ReplaceColumns duplicate entry (%d,%d)", rs[i].Row, rs[i].Col))
			}
		}
	}
	out := &CSR{R: m.R, C: m.C, RowPtr: make([]int, m.R+1)}
	for i := 0; i < m.R; i++ {
		news := byRow[i]
		ni := 0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			for ni < len(news) && news[ni].Col < j {
				out.ColIdx = append(out.ColIdx, news[ni].Col)
				out.Val = append(out.Val, news[ni].Val)
				ni++
			}
			if replaced[j] {
				continue // old contents of a replaced column
			}
			out.ColIdx = append(out.ColIdx, j)
			out.Val = append(out.Val, m.Val[k])
		}
		for ; ni < len(news); ni++ {
			out.ColIdx = append(out.ColIdx, news[ni].Col)
			out.Val = append(out.Val, news[ni].Val)
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}
