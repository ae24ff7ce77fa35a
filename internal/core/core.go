// Package core implements BEAR, the Block Elimination Approach for Random
// walk with restart (Shin, Sael, Jung, Kang; SIGMOD 2015).
//
// The preprocessing phase (Algorithm 1 of the paper) reorders the system
// matrix H = I − (1−c)Ãᵀ with the configured ordering engine (SlashBurn by
// default; see internal/ordering) so that the spoke-spoke block H₁₁
// is block diagonal, LU-factorizes H₁₁ and inverts the factors, forms the
// Schur complement S of H₁₁, reorders hubs by degree in S, factorizes S,
// and optionally drops near-zero entries (BEAR-Approx). The query phase
// (Algorithm 2) computes the RWR vector for a seed by block elimination
// using only sparse matrix-vector products against the precomputed
// matrices.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"bear/internal/dense"
	"bear/internal/graph"
	"bear/internal/obsv"
	"bear/internal/ordering"
	"bear/internal/sparse"
	"bear/internal/sparse/kernel"
)

// Default parameter values, matching the paper's experimental settings.
const (
	DefaultC        = 0.05  // restart probability (Section 4.1)
	DefaultHubRatio = 0.001 // SlashBurn k = 0.001·n (Section 4.1)
)

// denseSchurCutoff is the largest hub count n₂ whose Schur complement is
// factored with dense partial-pivoted LU; larger ones use sparse no-pivot
// LU (see factorSchur).
const denseSchurCutoff = 4096

// Options configures BEAR preprocessing.
type Options struct {
	// C is the restart probability in (0, 1). Zero selects DefaultC.
	C float64
	// DropTol is the drop tolerance ξ. Zero keeps every entry
	// (BEAR-Exact); positive values select BEAR-Approx.
	DropTol float64
	// HubRatio sets the ordering budget k = HubRatio·n when K is zero
	// (the SlashBurn wave size of the paper). Zero selects
	// DefaultHubRatio.
	HubRatio float64
	// K overrides the ordering budget directly when positive.
	K int
	// Ordering names the reordering engine for lines 2-3 of Algorithm 1
	// (internal/ordering): "slashburn" (the paper's, and the default when
	// empty) or "mindeg" (greedy minimum-degree elimination). Every engine
	// yields exact query results; they trade fill, memory, preprocess time,
	// and query speed. Unknown names fail preprocessing up front.
	Ordering string
	// Laplacian switches the transition matrix from the row-normalized
	// adjacency Ã to the normalized graph Laplacian D⁻¹ᐟ²AD⁻¹ᐟ²
	// (Section 3.4, "RWR with normalized graph Laplacian").
	Laplacian bool
	// NoHubOrder disables line 7 of Algorithm 1 (reordering hubs by their
	// degree in S before factoring it). Exactness is unaffected; the
	// factors of S just fill in more. Exposed for the ablation experiment
	// that quantifies that design choice.
	NoHubOrder bool
	// KeepH retains the permuted system matrix H = I − (1−c)Ãᵀ alongside
	// the factors. H is never subject to the drop tolerance, so it is the
	// exact operator the factors approximate — which is what Residual and
	// the refined query path (QueryRefinedCtx) measure against. Costs one
	// extra copy of |H| ≈ |E| nonzeros in memory and in the precompute
	// file.
	KeepH bool
}

func (o Options) withDefaults() Options {
	if o.C == 0 {
		o.C = DefaultC
	}
	if o.HubRatio == 0 {
		o.HubRatio = DefaultHubRatio
	}
	return o
}

// Stats records structural and timing measurements from preprocessing; the
// fields mirror the columns of Table 4 of the paper.
type Stats struct {
	N, M        int
	N1, N2      int
	NumBlocks   int
	SumSqBlocks int64 // Σ n₁ᵢ²
	// Ordering is the name of the engine that produced the hub/block
	// structure ("slashburn" unless Options.Ordering chose another).
	Ordering string
	// OrderingIters is the engine's work counter: hub-removal waves for
	// slashburn, mass-eliminated nodes for mindeg.
	OrderingIters int

	NNZH      int // |H|
	NNZH12H21 int // |H₁₂| + |H₂₁|
	NNZL1U1   int // |L₁⁻¹| + |U₁⁻¹|
	NNZL2U2   int // |L₂⁻¹| + |U₂⁻¹|

	TimeOrdering time.Duration
	TimeLU1      time.Duration
	TimeSchur    time.Duration
	TimeLU2      time.Duration
	TimeTotal    time.Duration
}

// Precomputed holds the output of BEAR preprocessing: the six matrices of
// Algorithm 1 plus the permutations needed to map between graph node ids
// and BEAR's internal ordering. It is safe for concurrent queries.
type Precomputed struct {
	N, N1, N2 int
	C         float64
	Blocks    []int
	// BlockOffsets is the prefix-sum of Blocks: diagonal block i of H₁₁
	// covers internal positions [BlockOffsets[i], BlockOffsets[i+1]). It is
	// derived from Blocks (never serialized) and shared by BlockOf and the
	// single-seed fast path.
	BlockOffsets []int

	Perm    []int // Perm[node id] = internal position
	InvPerm []int // InvPerm[internal position] = node id

	L1Inv *sparse.CSR // n₁×n₁, block diagonal
	U1Inv *sparse.CSR // n₁×n₁, block diagonal
	H12   *sparse.CSR // n₁×n₂
	H21   *sparse.CSR // n₂×n₁
	L2Inv *sparse.CSR // n₂×n₂
	U2Inv *sparse.CSR // n₂×n₂
	SPerm []int       // pivot permutation of S's LU: (Pb)[i] = b[SPerm[i]]

	// H is the exact permuted system matrix (internal order), retained
	// only when preprocessing ran with Options.KeepH; nil otherwise. It
	// backs Residual and the iterative-refinement query path.
	H *sparse.CSR

	OutDegree []float64 // weighted out-degree per node, for effective importance

	Stats Stats

	// wsPool and batchPool recycle single-vector and batch-width
	// workspaces, so steady-state queries allocate nothing; see
	// AcquireWorkspace. Precomputed must not be copied by value once
	// queries have run.
	wsPool, batchPool sync.Pool

	// incr caches the Schur-assembly intermediates the incremental rebuild
	// path patches instead of recomputing: t2 = U₁⁻¹L₁⁻¹H₁₂ (n₁×n₂, rows
	// partitioned by the diagonal blocks of H₁₁) and h22 (n₂×n₂), both in
	// the final hub order. Retained only by a Dynamic's own preprocessing
	// passes (NewDynamic and full rebuilds) on an exact, row-normalized
	// index — the two preconditions of incremental rebuilds; nil otherwise
	// (and after Load — the cache is derived, never serialized, and never
	// counted by Bytes).
	incr *rebuildCache

	// kern holds the kernel-layer views of the factor matrices through
	// which every query-time product runs; layouts are chosen per matrix
	// by finish. Derived, never serialized.
	kern struct {
		l1inv, u1inv kernel.Matrix
		h12, h21     kernel.Matrix
		l2inv, u2inv kernel.Matrix
		h            kernel.Matrix // nil unless H was retained
	}

	// topkNu caches the per-column certified factor-response bounds the
	// block-pruned top-k solve uses (see topKColBounds). Built lazily on
	// the first top-k query; derived, never serialized.
	topkOnce sync.Once
	topkNu   []float64

	// isolated holds one bit per diagonal block of H₁₁, set when the
	// stored H₂₁ has no entry in the block's columns: no right-hand side
	// supported on the block reaches a hub (see solveIsolated). Derived by
	// finish, never serialized.
	isolated []uint64
}

// finish is the last step of Algorithm 1, shared by Preprocess, the
// incremental rebuild and Load: once the serialized fields are final it
// derives the block offsets and the isolated-block bits and builds the
// kernel-layer views every query-time product runs through. An H₁₂ view
// the caller already set is kept: the incremental rebuild hands over the
// one it shares with the old index.
//
// A block is isolated when the stored H₂₁ has no entry in its columns. The
// bits come from one pass marking H₂₁'s columns and one pass over the
// blocks.
func (p *Precomputed) finish() {
	p.BlockOffsets = blockOffsets(p.Blocks)
	hit := make([]bool, p.N1)
	for _, j := range p.H21.ColIdx {
		hit[j] = true
	}
	p.isolated = make([]uint64, (len(p.Blocks)+63)/64)
	for bi := range p.Blocks {
		if !slices.Contains(hit[p.BlockOffsets[bi]:p.BlockOffsets[bi+1]], true) {
			p.isolated[bi/64] |= 1 << (bi % 64)
		}
	}

	p.kern.l1inv = kernel.New(p.L1Inv)
	p.kern.u1inv = kernel.New(p.U1Inv)
	if p.kern.h12 == nil {
		p.kern.h12 = kernel.New(p.H12)
	}
	p.kern.h21 = kernel.New(p.H21)
	p.kern.l2inv = kernel.New(p.L2Inv)
	p.kern.u2inv = kernel.New(p.U2Inv)
	if p.H != nil {
		p.kern.h = kernel.New(p.H)
	}
}

// blockOffsets returns the prefix sums of the diagonal block sizes: block
// i covers internal positions [off[i], off[i+1]).
func blockOffsets(blocks []int) []int {
	off := make([]int, len(blocks)+1)
	for i, sz := range blocks {
		off[i+1] = off[i] + sz
	}
	return off
}

// isolatedBlock returns the diagonal block of the spoke at internal
// position pos and whether that block is isolated: H₂₁ stores no entry in
// its columns. Hubs are never isolated.
func (p *Precomputed) isolatedBlock(pos int) (int, bool) {
	if pos >= p.N1 {
		return -1, false
	}
	bi := p.blockOfPos(pos)
	return bi, p.blockIsolated(bi)
}

// blockIsolated reports whether diagonal block bi is isolated.
func (p *Precomputed) blockIsolated(bi int) bool {
	return p.isolated[bi/64]&(1<<(bi%64)) != 0
}

// PreprocessCtx is Preprocess with cooperative cancellation and per-stage
// observability. The context is checked between the stages of Algorithm 1 —
// after the ordering, before each diagonal block of the H₁₁ factorization,
// between the Schur-complement products, and before the Schur
// factorization — so a cancelled rebuild aborts within one stage (or one
// block) instead of running minutes to completion; the context's error is
// returned wrapped and matches errors.Is(err, ctx.Err()). Per-stage timings
// (the split Figure 8 of the paper reports) are recorded into the
// obsv.Trace carried by ctx, if any.
func PreprocessCtx(ctx context.Context, g *graph.Graph, opts Options) (*Precomputed, error) {
	return preprocessCtx(ctx, g, opts, false)
}

// Preprocess runs Algorithm 1 of the paper on g without a cancellation
// point; it is PreprocessCtx with a background context.
func Preprocess(g *graph.Graph, opts Options) (*Precomputed, error) {
	return preprocessCtx(context.Background(), g, opts, false)
}

// preprocessCtx runs Algorithm 1 straight through, polling ctx between
// stages. retain keeps the Schur-assembly intermediates the incremental
// rebuild patches (see rebuildCache); a Dynamic asks for them on its own
// passes, and they are kept only for exact, row-normalized indexes.
func preprocessCtx(ctx context.Context, g *graph.Graph, opts Options, retain bool) (*Precomputed, error) {
	opts = opts.withDefaults()
	if opts.C <= 0 || opts.C >= 1 {
		return nil, fmt.Errorf("core: restart probability %g outside (0,1)", opts.C)
	}
	if opts.DropTol < 0 {
		return nil, fmt.Errorf("core: negative drop tolerance %g", opts.DropTol)
	}
	// Reject an unknown ordering before minutes of preprocessing, not
	// after.
	ord, err := ordering.Get(opts.Ordering)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	n := g.N()
	if n == 0 {
		return nil, errors.New("core: empty graph")
	}
	start := time.Now()

	// Line 1: H = I − (1−c)Ãᵀ (or the Laplacian variant).
	h := g.HMatrixCSC(opts.C, opts.Laplacian)

	// Lines 2-3: hub-and-spoke reordering by the configured engine
	// (SlashBurn unless Options.Ordering chose another).
	k := opts.K
	if k <= 0 {
		k = int(opts.HubRatio * float64(n))
		if k < 1 {
			k = 1
		}
	}
	tsb := time.Now()
	sb, err := ord.Run(g, ordering.Params{K: k})
	if err != nil {
		return nil, fmt.Errorf("core: ordering %s: %w", ord.Name(), err)
	}
	if err := ordering.CheckStructure(n, sb); err != nil {
		return nil, fmt.Errorf("core: ordering %s produced an invalid result: %w", ord.Name(), err)
	}
	timeOrdering := time.Since(tsb)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: preprocessing aborted after ordering: %w", err)
	}

	p := &Precomputed{
		N:      n,
		N1:     n - sb.NumHubs,
		N2:     sb.NumHubs,
		C:      opts.C,
		Blocks: sb.Blocks,
	}
	perm := append([]int(nil), sb.Perm...)
	invPerm := append([]int(nil), sb.InvPerm...)

	// Line 4: permute and partition H. H₁₁ is never extracted whole: line 5
	// reads each diagonal block straight out of the permuted H.
	hp := h.Permute(perm, perm)
	n1 := p.N1
	h12 := hp.Submatrix(0, n1, n1, n).ToCSR()
	h21 := hp.Submatrix(n1, n, 0, n1).ToCSR()
	h22 := hp.Submatrix(n1, n, n1, n).ToCSR()

	// Line 5: LU-decompose H₁₁ block by block and invert the factors.
	tlu1 := time.Now()
	l1inv, u1inv, err := factorBlocks(ctx, hp, blockOffsets(sb.Blocks))
	if err != nil {
		return nil, fmt.Errorf("core: preprocessing: %w", err)
	}
	timeLU1 := time.Since(tlu1)

	// Line 6: Schur complement S = H₂₂ − H₂₁ U₁⁻¹ L₁⁻¹ H₁₂.
	tschur := time.Now()
	t2 := sparse.Mul(u1inv, sparse.Mul(l1inv, h12))
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: preprocessing aborted during Schur assembly: %w", err)
	}
	s := schurComplement(h22, h21, t2)
	timeSchur := time.Since(tschur)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: preprocessing aborted after Schur assembly: %w", err)
	}

	// Line 7: reorder hubs in ascending order of degree within S.
	var hubPerm []int
	if p.N2 > 1 && !opts.NoHubOrder {
		hubPerm = hubDegreeOrder(s)
		s = s.Permute(hubPerm, hubPerm)
		h12 = h12.Permute(nil, hubPerm)
		h21 = h21.Permute(hubPerm, nil)
		// Fold the hub reorder into the global permutation.
		oldInvHubs := append([]int(nil), invPerm[n1:]...)
		for oldPos, newPos := range hubPerm {
			invPerm[n1+newPos] = oldInvHubs[oldPos]
		}
		for pos, node := range invPerm {
			perm[node] = pos
		}
	}

	// Line 8: LU-decompose S and invert the factors.
	tlu2 := time.Now()
	l2inv, u2inv, sperm, err := factorSchur(s, denseSchurCutoff)
	if err != nil {
		return nil, fmt.Errorf("core: factoring Schur complement: %w", err)
	}
	timeLU2 := time.Since(tlu2)

	// Line 9: BEAR-Approx drops near-zero entries.
	if opts.DropTol > 0 {
		l1inv = l1inv.Drop(opts.DropTol)
		u1inv = u1inv.Drop(opts.DropTol)
		l2inv = l2inv.Drop(opts.DropTol)
		u2inv = u2inv.Drop(opts.DropTol)
		h12 = h12.Drop(opts.DropTol)
		h21 = h21.Drop(opts.DropTol)
	}

	// Retain the Schur-assembly intermediates for incremental rebuilds.
	// t2 and h22 were formed before the line-7 hub reorder, so their hub
	// axes are mapped into the final order here. A column permutation of
	// the right operand of a sparse product reorders output entries, never
	// the per-entry accumulation order, so the cached t2 is bit-identical
	// to recomputing it from the reordered H₁₂ — the property the
	// incremental-vs-pinned-full equivalence test pins down.
	if retain && opts.DropTol == 0 && !opts.Laplacian {
		if hubPerm != nil {
			t2 = t2.Permute(nil, hubPerm)
			h22 = h22.Permute(hubPerm, hubPerm)
		}
		p.incr = &rebuildCache{t2: t2, h22: h22}
	}

	// Retain the exact permuted operator if asked. Built from the original
	// H with the final permutation — line 7 above folds the hub reorder
	// into perm after hp was formed, so hp's ordering is already stale.
	// Never subject to the drop tolerance (line 9): H is the ground truth
	// Residual and refinement measure the dropped factors against.
	if opts.KeepH {
		p.H = h.Permute(perm, perm).ToCSR()
	}

	p.Perm = perm
	p.InvPerm = invPerm
	p.L1Inv = l1inv
	p.U1Inv = u1inv
	p.H12 = h12
	p.H21 = h21
	p.L2Inv = l2inv
	p.U2Inv = u2inv
	p.SPerm = sperm
	p.OutDegree = weightedOutDegrees(g)
	p.finish()
	p.Stats = Stats{
		N: n, M: g.M(), N1: p.N1, N2: p.N2,
		NumBlocks:     len(sb.Blocks),
		SumSqBlocks:   sb.SumSqBlocks(),
		Ordering:      ord.Name(),
		OrderingIters: sb.Iterations,
		NNZH:          h.NNZ(),
		NNZH12H21:     h12.NNZ() + h21.NNZ(),
		NNZL1U1:       l1inv.NNZ() + u1inv.NNZ(),
		NNZL2U2:       l2inv.NNZ() + u2inv.NNZ(),
		TimeOrdering:  timeOrdering,
		TimeLU1:       timeLU1,
		TimeSchur:     timeSchur,
		TimeLU2:       timeLU2,
		TimeTotal:     time.Since(start),
	}
	if tr := obsv.FromContext(ctx); tr != nil {
		tr.Add(obsv.SpanOrdering, timeOrdering)
		tr.Add(obsv.SpanBlockLU, timeLU1)
		tr.Add(obsv.SpanSchurAssembly, timeSchur)
		tr.Add(obsv.SpanSchurFactor, timeLU2)
	}
	return p, nil
}

// factorBlocks is line 5 of Algorithm 1 over every diagonal block of H₁₁:
// block b spans rows and columns [off[b], off[b+1]) of h, which may be the
// whole permuted H (only the blocks' own entries are used). It returns
// L₁⁻¹ and U₁⁻¹ in CSR form. Gilbert–Peierls never mixes arithmetic across
// blocks (Lemma 1), so the result is bit-identical to factoring and
// inverting H₁₁ whole.
func factorBlocks(ctx context.Context, h *sparse.CSC, off []int) (l1inv, u1inv *sparse.CSR, err error) {
	ls := make([]*sparse.CSR, len(off)-1)
	us := make([]*sparse.CSR, len(off)-1)
	for b := range ls {
		lo, hi := off[b], off[b+1]
		if ls[b], us[b], err = factorBlock(ctx, b, h.Submatrix(lo, hi, lo, hi)); err != nil {
			return nil, nil, err
		}
	}
	return sparse.BlockDiag(ls), sparse.BlockDiag(us), nil
}

// factorBlock LU-decomposes diagonal block b of H₁₁ and inverts both
// factors (L unit lower, U upper), in CSR form. It polls ctx first, so a
// cancelled pass stops between blocks with an error matching
// errors.Is(err, ctx.Err()); every error names the block.
func factorBlock(ctx context.Context, b int, blk *sparse.CSC) (li, ui *sparse.CSR, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("aborted before block %d: %w", b, err)
	}
	f, err := sparse.LU(blk)
	if err != nil {
		return nil, nil, fmt.Errorf("block %d: %w", b, err)
	}
	l, err := sparse.InverseLower(f.L, true)
	if err != nil {
		return nil, nil, fmt.Errorf("block %d: inverting L: %w", b, err)
	}
	u, err := sparse.InverseUpper(f.U)
	if err != nil {
		return nil, nil, fmt.Errorf("block %d: inverting U: %w", b, err)
	}
	return l.ToCSR(), u.ToCSR(), nil
}

// hColumn appends column pos of the permuted system matrix
// H = I − (1−c)Ãᵀ to col, built from g's out-row of the node at internal
// position pos, as (row, pos, value) coordinates in internal positions;
// the diagonal entry comes last. It reproduces graph.HMatrixCSC's
// arithmetic bit for bit: normalize by the row's weight, scale by −(1−c),
// fold a self-loop into the diagonal, and keep the explicit −0 entries of
// a zero-weight row (they are structural nonzeros to the LU).
func (p *Precomputed) hColumn(col []sparse.Coord, g *graph.Graph, pos int) []sparse.Coord {
	u := p.InvPerm[pos]
	dst, w := g.Out(u)
	total := outWeight(g, u)
	diag := 1.0
	for k, v := range dst {
		var wn float64
		if total > 0 {
			wn = w[k] / total
		}
		val := wn * -(1 - p.C)
		if pv := p.Perm[v]; pv == pos {
			diag += val
		} else {
			col = append(col, sparse.Coord{Row: pv, Col: pos, Val: val})
		}
	}
	return append(col, sparse.Coord{Row: pos, Col: pos, Val: diag})
}

// h11Block builds diagonal block [lo,hi) of the permuted H₁₁ from g's rows
// in CSC form, bit-identical to extracting it from
// g.HMatrixCSC(c, false).Permute(Perm, Perm). Entries outside the block
// (the hub rows, which belong to H₂₁) are skipped.
func (p *Precomputed) h11Block(g *graph.Graph, lo, hi int) *sparse.CSC {
	var col, coords []sparse.Coord
	for pos := lo; pos < hi; pos++ {
		col = p.hColumn(col[:0], g, pos)
		for _, e := range col {
			if e.Row >= lo && e.Row < hi {
				coords = append(coords, sparse.Coord{Row: e.Row - lo, Col: e.Col - lo, Val: e.Val})
			}
		}
	}
	return sparse.NewCSC(hi-lo, hi-lo, coords)
}

// schurComplement is the last product of line 6 of Algorithm 1:
// S = H₂₂ − H₂₁·t₂ with t₂ = U₁⁻¹L₁⁻¹H₁₂, explicit zeros pruned.
func schurComplement(h22, h21, t2 *sparse.CSR) *sparse.CSR {
	return sparse.Sub(h22, sparse.Mul(h21, t2)).Prune()
}

// hubDegreeOrder returns a permutation (old position -> new position)
// sorting the hubs by ascending degree in S, where the degree of hub i is
// the number of off-diagonal nonzeros in row i and column i of S.
func hubDegreeOrder(s *sparse.CSR) []int {
	n2 := s.R
	deg := make([]int, n2)
	for i := 0; i < n2; i++ {
		cols, _ := s.Row(i)
		for _, j := range cols {
			if j != i {
				deg[i]++
				deg[j]++
			}
		}
	}
	order := make([]int, n2)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if deg[order[a]] != deg[order[b]] {
			return deg[order[a]] < deg[order[b]]
		}
		return order[a] < order[b]
	})
	permOldToNew := make([]int, n2)
	for newPos, oldPos := range order {
		permOldToNew[oldPos] = newPos
	}
	return permOldToNew
}

// factorSchur LU-decomposes S and returns L₂⁻¹, U₂⁻¹ and the pivot
// permutation. Small/medium Schur complements use dense LU with partial
// pivoting for robustness; very large ones fall back to sparse no-pivot LU
// (safe because S inherits column diagonal dominance from H).
func factorSchur(s *sparse.CSR, denseCutoff int) (l2inv, u2inv *sparse.CSR, sperm []int, err error) {
	n2 := s.R
	if n2 == 0 {
		empty := sparse.NewCSR(0, 0, nil)
		return empty, empty.Clone(), nil, nil
	}
	if n2 <= denseCutoff {
		sd := dense.NewFrom(n2, n2, s.Dense())
		f, err := dense.LU(sd)
		if err != nil {
			return nil, nil, nil, err
		}
		li := dense.InverseLowerUnit(f.L())
		ui, err := dense.InverseUpper(f.U())
		if err != nil {
			return nil, nil, nil, err
		}
		return sparse.FromDense(n2, n2, li.Data), sparse.FromDense(n2, n2, ui.Data), f.PermVector(), nil
	}
	f, err := sparse.LU(s.ToCSC())
	if err != nil {
		return nil, nil, nil, err
	}
	liCSC, err := sparse.InverseLower(f.L, true)
	if err != nil {
		return nil, nil, nil, err
	}
	uiCSC, err := sparse.InverseUpper(f.U)
	if err != nil {
		return nil, nil, nil, err
	}
	return liCSC.ToCSR(), uiCSC.ToCSR(), nil, nil
}

func weightedOutDegrees(g *graph.Graph) []float64 {
	d := make([]float64, g.N())
	for u := range d {
		d[u] = outWeight(g, u)
	}
	return d
}

// outWeight returns the total weight of u's out-edges, summed in
// destination order.
func outWeight(g *graph.Graph, u int) float64 {
	_, w := g.Out(u)
	var total float64
	for _, x := range w {
		total += x
	}
	return total
}

// NNZ returns the total number of stored entries across the six
// precomputed matrices, the quantity Figure 2 of the paper compares.
func (p *Precomputed) NNZ() int64 {
	return int64(p.L1Inv.NNZ()) + int64(p.U1Inv.NNZ()) +
		int64(p.H12.NNZ()) + int64(p.H21.NNZ()) +
		int64(p.L2Inv.NNZ()) + int64(p.U2Inv.NNZ())
}

// Bytes estimates the memory used by the precomputed matrices and
// permutations, the quantity Figure 5 of the paper compares.
func (p *Precomputed) Bytes() int64 {
	b := p.L1Inv.Bytes() + p.U1Inv.Bytes() + p.H12.Bytes() + p.H21.Bytes() +
		p.L2Inv.Bytes() + p.U2Inv.Bytes()
	if p.H != nil {
		b += p.H.Bytes()
	}
	b += int64(len(p.Perm)+len(p.InvPerm)+len(p.SPerm)) * 8
	b += int64(len(p.OutDegree)) * 8
	return b
}
