// Package graph provides the directed weighted graph substrate shared by
// every RWR method: a compact CSR adjacency representation, row
// normalization, construction of the RWR system matrix H = I − (1−c)Ãᵀ,
// connected components, permutation, and edge-list I/O.
package graph

import (
	"fmt"
	"math"
	"sort"

	"bear/internal/sparse"
)

// Graph is an immutable directed weighted graph over nodes 0..N-1 stored in
// compressed sparse row form. Build one with a Builder or a loader.
type Graph struct {
	n      int
	outPtr []int
	outDst []int
	outW   []float64
}

// Builder accumulates edges for a Graph.
type Builder struct {
	n     int
	edges []sparse.Coord
}

// NewBuilder returns a builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Builder{n: n}
}

// AddEdge records a directed edge u -> v with weight w. Parallel edges are
// merged by summing weights at Build time. Self-loops are allowed.
func (b *Builder) AddEdge(u, v int, w float64) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", u, v, b.n))
	}
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		panic(fmt.Sprintf("graph: invalid edge weight %g", w))
	}
	b.edges = append(b.edges, sparse.Coord{Row: u, Col: v, Val: w})
}

// AddUndirected records the pair of directed edges u <-> v.
func (b *Builder) AddUndirected(u, v int, w float64) {
	b.AddEdge(u, v, w)
	if u != v {
		b.AddEdge(v, u, w)
	}
}

// Build finalizes the accumulated edges into an immutable Graph.
func (b *Builder) Build() *Graph {
	m := sparse.NewCSR(b.n, b.n, b.edges)
	return &Graph{n: b.n, outPtr: m.RowPtr, outDst: m.ColIdx, outW: m.Val}
}

// FromCSR builds a graph directly from an adjacency matrix.
func FromCSR(a *sparse.CSR) *Graph {
	if a.R != a.C {
		panic("graph: adjacency matrix must be square")
	}
	return &Graph{n: a.R, outPtr: a.RowPtr, outDst: a.ColIdx, outW: a.Val}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of stored directed edges.
func (g *Graph) M() int { return len(g.outDst) }

// OutDegree returns the number of out-edges of u.
func (g *Graph) OutDegree(u int) int { return g.outPtr[u+1] - g.outPtr[u] }

// Out returns the destinations and weights of u's out-edges, aliasing
// internal storage; callers must not modify them.
func (g *Graph) Out(u int) (dst []int, w []float64) {
	return g.outDst[g.outPtr[u]:g.outPtr[u+1]], g.outW[g.outPtr[u]:g.outPtr[u+1]]
}

// HasEdge reports whether the directed edge u -> v exists.
func (g *Graph) HasEdge(u, v int) bool {
	dst, _ := g.Out(u)
	k := sort.SearchInts(dst, v)
	return k < len(dst) && dst[k] == v
}

// Adjacency returns the (unnormalized) weighted adjacency matrix in CSR
// form, aliasing the graph's internal storage.
func (g *Graph) Adjacency() *sparse.CSR {
	return &sparse.CSR{R: g.n, C: g.n, RowPtr: g.outPtr, ColIdx: g.outDst, Val: g.outW}
}

// InDegrees computes the in-degree of every node.
func (g *Graph) InDegrees() []int {
	in := make([]int, g.n)
	for _, v := range g.outDst {
		in[v]++
	}
	return in
}

// TotalDegrees returns out-degree + in-degree per node, the degree notion
// SlashBurn uses for hub selection on directed graphs.
func (g *Graph) TotalDegrees() []int {
	d := g.InDegrees()
	for u := 0; u < g.n; u++ {
		d[u] += g.OutDegree(u)
	}
	return d
}

// Normalized returns the row-stochastic transition matrix Ã. Rows of
// dangling nodes (zero out-degree) are left as all-zero, the convention the
// iterative method and BEAR share so that both solve the same system.
func (g *Graph) Normalized() *sparse.CSR {
	val := make([]float64, len(g.outW))
	for u := 0; u < g.n; u++ {
		var s float64
		for k := g.outPtr[u]; k < g.outPtr[u+1]; k++ {
			s += g.outW[k]
		}
		if s == 0 {
			continue
		}
		for k := g.outPtr[u]; k < g.outPtr[u+1]; k++ {
			val[k] = g.outW[k] / s
		}
	}
	return &sparse.CSR{R: g.n, C: g.n, RowPtr: g.outPtr, ColIdx: g.outDst, Val: val}
}

// NormalizedLaplacian returns D⁻¹ᐟ² A D⁻¹ᐟ², the symmetric normalization
// Tong et al. use for the "RWR with normalized graph Laplacian" variant.
// D is the diagonal of weighted out-degrees; nodes of degree zero keep zero
// rows/columns.
func (g *Graph) NormalizedLaplacian() *sparse.CSR {
	dinv := make([]float64, g.n)
	for u := 0; u < g.n; u++ {
		var s float64
		for k := g.outPtr[u]; k < g.outPtr[u+1]; k++ {
			s += g.outW[k]
		}
		if s > 0 {
			dinv[u] = 1 / math.Sqrt(s)
		}
	}
	val := make([]float64, len(g.outW))
	for u := 0; u < g.n; u++ {
		for k := g.outPtr[u]; k < g.outPtr[u+1]; k++ {
			val[k] = dinv[u] * g.outW[k] * dinv[g.outDst[k]]
		}
	}
	return &sparse.CSR{R: g.n, C: g.n, RowPtr: g.outPtr, ColIdx: g.outDst, Val: val}
}

// HMatrixCSC builds H = I − (1−c) Wᵀ in CSC form, where W is the transition
// matrix (row-normalized adjacency, or the normalized Laplacian when lap is
// true). The CSC of H shares buffers with the CSR of Hᵀ = I − (1−c) W, so no
// transpose pass is needed.
func (g *Graph) HMatrixCSC(c float64, lap bool) *sparse.CSC {
	if c <= 0 || c >= 1 {
		panic(fmt.Sprintf("graph: restart probability %g outside (0,1)", c))
	}
	var w *sparse.CSR
	if lap {
		w = g.NormalizedLaplacian()
	} else {
		w = g.Normalized()
	}
	ht := sparse.Add(sparse.Identity(g.n), w.Clone().Scale(-(1 - c)))
	return &sparse.CSC{R: g.n, C: g.n, ColPtr: ht.RowPtr, RowIdx: ht.ColIdx, Val: ht.Val}
}

// Permute relabels nodes: node u becomes perm[u] in the returned graph.
func (g *Graph) Permute(perm []int) *Graph {
	sparse.CheckPermutation(perm)
	return FromCSR(g.Adjacency().Permute(perm, perm))
}

// UndirectedNeighbors returns, for every node, the sorted distinct
// neighbors under the undirected view (out ∪ in), used by SlashBurn and
// connected components.
func (g *Graph) UndirectedNeighbors() [][]int {
	sym := sparse.Add(g.Adjacency(), g.Adjacency().Transpose())
	adj := make([][]int, g.n)
	for u := 0; u < g.n; u++ {
		cols, _ := sym.Row(u)
		row := make([]int, 0, len(cols))
		for _, v := range cols {
			if v != u {
				row = append(row, v)
			}
		}
		adj[u] = row
	}
	return adj
}
