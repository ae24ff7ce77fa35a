package rwr

import (
	"fmt"

	"bear/internal/dense"
	"bear/internal/graph"
	"bear/internal/sparse"
)

// BLin is the B_LIN baseline of Tong et al. (KAIS 2008): partition the
// graph, keep within-partition edges A₁ exactly (inverting the block
// diagonal M = I − (1−c)A₁ per partition), approximate cross-partition
// edges A₂ with a rank-t decomposition U V, and answer queries with the
// Sherman–Morrison–Woodbury identity
//
//	r ≈ c ( M⁻¹ q + (1−c) M⁻¹ U Λ V M⁻¹ q ),  Λ = (I − (1−c) V M⁻¹ U)⁻¹.
//
// The decomposition is the partition-mean heuristic the paper's experiments
// use: columns of A₂ are grouped t ways and each group is replaced by its
// mean column.
type BLin struct{}

// Name implements Method naming for the harness.
func (BLin) Name() string { return "b_lin" }

// Preprocess builds M⁻¹, U, V, and Λ.
func (BLin) Preprocess(g *graph.Graph, opts Options) (Solver, error) {
	return preprocessLin(g, opts, true)
}

// NBLin is B_LIN without partitioning (Tong et al.): the whole Ãᵀ is
// low-rank approximated, so M = I and queries reduce to
// r ≈ c ( q + (1−c) U Λ V q ).
type NBLin struct{}

// Name implements Method naming for the harness.
func (NBLin) Name() string { return "nb_lin" }

// Preprocess builds U, V, and Λ.
func (NBLin) Preprocess(g *graph.Graph, opts Options) (Solver, error) {
	return preprocessLin(g, opts, false)
}

func preprocessLin(g *graph.Graph, opts Options, partitioned bool) (Solver, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n := g.N()
	w := g.Normalized().Transpose() // W = Ãᵀ, so r = c (I − (1−c)W)⁻¹ q

	s := &linSolver{c: opts.C, n: n}
	a2 := w
	if partitioned {
		parts := Partition(g, opts.Partitions)
		// Estimated footprint of the dense per-partition inverses.
		sizes := make([]int64, opts.Partitions)
		for _, p := range parts {
			sizes[p]++
		}
		var est int64
		for _, sz := range sizes {
			est += sz * sz * 16
		}
		if overBudget(opts, est) {
			return nil, fmt.Errorf("%w: B_LIN block inverses need ~%d bytes", ErrOutOfMemory, est)
		}
		a1, rest := splitByPartition(w, parts)
		a2 = rest
		minv, err := invertBlockDiag(a1, parts, opts.C)
		if err != nil {
			return nil, err
		}
		if opts.DropTol > 0 {
			minv = minv.Drop(opts.DropTol)
		}
		s.minv = minv
	}

	t := opts.Rank
	if t > n {
		t = n
	}
	u, v := meanColumnDecomposition(g, a2, t)
	if opts.DropTol > 0 {
		u = u.Drop(opts.DropTol)
	}
	s.u, s.v = u, v

	// Λ = (I − (1−c) V M⁻¹ U)⁻¹, a dense t×t system.
	vmu := sparse.Mul(v, s.applyMinvMat(u)) // t×t
	lam := dense.Identity(t)
	for i := 0; i < t; i++ {
		for k := vmu.RowPtr[i]; k < vmu.RowPtr[i+1]; k++ {
			lam.Data[i*t+vmu.ColIdx[k]] -= (1 - opts.C) * vmu.Val[k]
		}
	}
	lamInv, err := dense.Inverse(lam)
	if err != nil {
		return nil, fmt.Errorf("rwr: inverting the %dx%d core matrix: %w", t, t, err)
	}
	s.lambda = lamInv
	return s, nil
}

type linSolver struct {
	c      float64
	n      int
	minv   *sparse.CSR   // nil for NB_LIN (identity)
	u      *sparse.CSR   // n×t
	v      *sparse.CSR   // t×n
	lambda *dense.Matrix // t×t
}

func (s *linSolver) applyMinv(x []float64) []float64 {
	if s.minv == nil {
		return x
	}
	return s.minv.MulVec(x)
}

func (s *linSolver) applyMinvMat(m *sparse.CSR) *sparse.CSR {
	if s.minv == nil {
		return m
	}
	return sparse.Mul(s.minv, m)
}

func (s *linSolver) Query(q []float64) ([]float64, error) {
	if len(q) != s.n {
		return nil, fmt.Errorf("rwr: starting vector length %d, want %d", len(q), s.n)
	}
	mq := s.applyMinv(q)
	t := s.v.MulVec(mq)
	t = s.lambda.MulVec(t)
	t = s.u.MulVec(t)
	t = s.applyMinv(t)
	r := make([]float64, s.n)
	for i := range r {
		r[i] = s.c * (mq[i] + (1-s.c)*t[i])
	}
	return r, nil
}

func (s *linSolver) NNZ() int64 {
	nnz := int64(s.u.NNZ() + s.v.NNZ())
	if s.minv != nil {
		nnz += int64(s.minv.NNZ())
	}
	for _, v := range s.lambda.Data {
		if v != 0 {
			nnz++
		}
	}
	return nnz
}

func (s *linSolver) Bytes() int64 {
	b := s.u.Bytes() + s.v.Bytes() + int64(len(s.lambda.Data))*8
	if s.minv != nil {
		b += s.minv.Bytes()
	}
	return b
}

// Partition assigns each node to one of k parts by chunked BFS over the
// undirected view: repeatedly grow a part from an unassigned seed until it
// reaches the target size. This is the stand-in for METIS that keeps most
// edges within partitions on community-structured graphs.
func Partition(g *graph.Graph, k int) []int {
	n := g.N()
	if k <= 0 {
		panic(fmt.Sprintf("rwr: partition count %d must be positive", k))
	}
	if k > n {
		k = n
	}
	adj := g.UndirectedNeighbors()
	target := (n + k - 1) / k
	part := make([]int, n)
	for i := range part {
		part[i] = -1
	}
	cur, size := 0, 0
	queue := make([]int, 0, target)
	assign := func(u int) {
		part[u] = cur
		size++
		if size >= target && cur < k-1 {
			cur++
			size = 0
		}
	}
	for s := 0; s < n; s++ {
		if part[s] >= 0 {
			continue
		}
		assign(s)
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if part[v] < 0 {
					assign(v)
					queue = append(queue, v)
				}
			}
		}
	}
	return part
}

// splitByPartition splits W into within-partition entries (a1) and
// cross-partition entries (a2), where entry (i, j) is "within" when
// part[i] == part[j].
func splitByPartition(w *sparse.CSR, part []int) (a1, a2 *sparse.CSR) {
	var in, out []sparse.Coord
	for i := 0; i < w.R; i++ {
		for k := w.RowPtr[i]; k < w.RowPtr[i+1]; k++ {
			c := sparse.Coord{Row: i, Col: w.ColIdx[k], Val: w.Val[k]}
			if part[i] == part[c.Col] {
				in = append(in, c)
			} else {
				out = append(out, c)
			}
		}
	}
	return sparse.NewCSR(w.R, w.C, in), sparse.NewCSR(w.R, w.C, out)
}

// invertBlockDiag computes M⁻¹ = (I − (1−c)A₁)⁻¹ per partition block with
// dense inversion, scattered back into a sparse matrix in original node
// order.
func invertBlockDiag(a1 *sparse.CSR, part []int, c float64) (*sparse.CSR, error) {
	n := a1.R
	nparts := 0
	for _, p := range part {
		if p+1 > nparts {
			nparts = p + 1
		}
	}
	members := make([][]int, nparts)
	for u, p := range part {
		members[p] = append(members[p], u)
	}
	local := make([]int, n)
	var coords []sparse.Coord
	for _, nodes := range members {
		sz := len(nodes)
		if sz == 0 {
			continue
		}
		for li, u := range nodes {
			local[u] = li
		}
		blk := dense.Identity(sz)
		for li, u := range nodes {
			for k := a1.RowPtr[u]; k < a1.RowPtr[u+1]; k++ {
				j := a1.ColIdx[k]
				if part[j] == part[u] {
					blk.Data[li*sz+local[j]] -= (1 - c) * a1.Val[k]
				}
			}
		}
		inv, err := dense.Inverse(blk)
		if err != nil {
			return nil, fmt.Errorf("rwr: inverting B_LIN block of size %d: %w", sz, err)
		}
		for li, u := range nodes {
			for lj, v := range nodes {
				if x := inv.Data[li*sz+lj]; x != 0 {
					coords = append(coords, sparse.Coord{Row: u, Col: v, Val: x})
				}
			}
		}
	}
	return sparse.NewCSR(n, n, coords), nil
}

// meanColumnDecomposition is the heuristic rank-t decomposition: columns of
// a2 are grouped by a t-way graph partition; U's column g is the mean of
// group g's columns and V is the group indicator, so A₂ ≈ U V.
func meanColumnDecomposition(g *graph.Graph, a2 *sparse.CSR, t int) (u, v *sparse.CSR) {
	n := a2.R
	groups := Partition(g, t)
	sizes := make([]float64, t)
	for _, p := range groups {
		sizes[p]++
	}
	var ucoords, vcoords []sparse.Coord
	for i := 0; i < n; i++ {
		for k := a2.RowPtr[i]; k < a2.RowPtr[i+1]; k++ {
			j := a2.ColIdx[k]
			gcol := groups[j]
			ucoords = append(ucoords, sparse.Coord{Row: i, Col: gcol, Val: a2.Val[k] / sizes[gcol]})
		}
	}
	for j := 0; j < n; j++ {
		vcoords = append(vcoords, sparse.Coord{Row: groups[j], Col: j, Val: 1})
	}
	return sparse.NewCSR(n, t, ucoords), sparse.NewCSR(t, n, vcoords)
}
