package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"bear/internal/graph"
	"bear/internal/obsv"
	"bear/internal/sparse"
)

// ErrIncrementalNotApplicable is returned by RebuildCtx when the caller
// demanded RebuildIncremental but the pending updates disqualify it; the
// wrapped message names the reason (one of the Fallback* constants). Use
// RebuildAuto to fall back to a full pass instead of erroring.
var ErrIncrementalNotApplicable = errors.New("incremental rebuild not applicable")

// RebuildMode selects how Rebuild folds pending updates into the
// precomputed matrices.
type RebuildMode string

const (
	// RebuildAuto picks incrementally when the pending updates qualify
	// (spoke-only, within the churn and fill budgets) and falls back to a
	// full pass otherwise, recording the reason.
	RebuildAuto RebuildMode = "auto"
	// RebuildFull always re-runs Algorithm 1 from scratch: a fresh run of
	// the configured ordering engine, every block re-factored. Restores
	// ordering quality.
	RebuildFull RebuildMode = "full"
	// RebuildIncremental requires the dirty-block path and errors if the
	// pending updates disqualify it (use RebuildAuto to fall back instead).
	RebuildIncremental RebuildMode = "incremental"
)

// ParseRebuildMode validates a mode string; the empty string selects
// RebuildAuto, matching an absent ?mode= query parameter.
func ParseRebuildMode(s string) (RebuildMode, error) {
	switch m := RebuildMode(s); m {
	case "":
		return RebuildAuto, nil
	case RebuildAuto, RebuildFull, RebuildIncremental:
		return m, nil
	default:
		return "", fmt.Errorf("core: rebuild mode %q must be auto, full, or incremental", s)
	}
}

// Fallback reasons recorded in RebuildReport.FallbackReason when
// RebuildAuto resolves to a full pass. The set is closed (it feeds a
// bounded metric label); add here and to OPERATIONS.md together.
const (
	// FallbackNoPending: nothing is dirty, so there is no dirty-block work
	// to scope; a requested rebuild runs the full pass (which also
	// refreshes the ordering).
	FallbackNoPending = "no_pending"
	// FallbackNoCache: the Schur-assembly cache is absent — the index was
	// loaded from disk or handed to RestoreDynamic by a static Preprocess
	// (the cache is derived state: never serialized, and retained only by
	// a Dynamic's own preprocessing passes).
	FallbackNoCache = "no_cache"
	// FallbackDropTol: BEAR-Approx indexes drop factor entries after the
	// Schur assembly, so the retained intermediates no longer match the
	// stored factors entry-for-entry.
	FallbackDropTol = "drop_tol"
	// FallbackLaplacian: under the symmetric normalization a row change
	// alters the degrees its neighbors normalize by, so an update is no
	// longer confined to one column of H.
	FallbackLaplacian = "laplacian"
	// FallbackHubDirty: a dirty node is a hub, so H₁₂/H₂₂ — not just one
	// diagonal block — changed.
	FallbackHubDirty = "hub_dirty"
	// FallbackCrossBlock: a dirty spoke gained an edge into a different
	// block, which would put a nonzero outside the block diagonal of H₁₁
	// under the reused partition.
	FallbackCrossBlock = "cross_block"
	// FallbackChurn: the dirty fraction exceeds RebuildPolicy
	// .MaxChurnFraction; a full pass is cheaper or the ordering is stale.
	FallbackChurn = "churn"
	// FallbackFillRatio: accumulated incremental rebuilds inflated the
	// factor nonzeros past RebuildPolicy.MaxFillRatio times the last full
	// build — the reused ordering has degraded, so re-run the engine.
	FallbackFillRatio = "fill_ratio"
)

// RebuildPolicy bounds when RebuildAuto takes the incremental path.
type RebuildPolicy struct {
	// MaxChurnFraction is the largest dirty-node fraction (dirty / n)
	// rebuilt incrementally; above it auto falls back to a full pass.
	// Zero selects the default 0.10 — the churn sweep in BENCH_rebuild.json
	// shows incremental winning comfortably below that.
	MaxChurnFraction float64
	// MaxFillRatio is the largest factor-nonzero inflation (current
	// precomputed NNZ over the last full build's) tolerated before auto
	// forces a full pass to refresh the ordering. Zero selects 2.0.
	MaxFillRatio float64
}

func (p RebuildPolicy) withDefaults() RebuildPolicy {
	if p.MaxChurnFraction == 0 {
		p.MaxChurnFraction = 0.10
	}
	if p.MaxFillRatio == 0 {
		p.MaxFillRatio = 2.0
	}
	return p
}

// RebuildReport describes one completed rebuild: which path ran, why auto
// fell back (if it did), and the per-stage split. Incremental rebuilds
// spend nothing on the ordering and time only the dirty blocks in the LU
// stage; full rebuilds mirror the Algorithm 1 stage split.
type RebuildReport struct {
	// Requested is the mode the caller asked for; Mode is the path that
	// actually ran (they differ only when auto fell back).
	Requested RebuildMode
	Mode      RebuildMode
	// FallbackReason is one of the Fallback* constants when Requested was
	// auto and Mode is full; empty otherwise.
	FallbackReason string

	DirtyNodes       int
	BlocksRefactored int
	TotalBlocks      int

	TimeOrdering      time.Duration
	TimeBlockLU       time.Duration
	TimeSplice        time.Duration
	TimeSchurAssembly time.Duration
	TimeSchurFactor   time.Duration
	TimeTotal         time.Duration
}

// rebuildCache holds the Schur-assembly intermediates retained for the
// incremental path: a Dynamic's own preprocessing passes keep them (see
// preprocessCtx); static Preprocess callers pay no extra memory.
type rebuildCache struct {
	t2  *sparse.CSR // U₁⁻¹L₁⁻¹H₁₂, n₁×n₂, final hub order
	h22 *sparse.CSR // n₂×n₂, final hub order
}

// incrPlan is the under-lock eligibility analysis handed to the
// out-of-lock incremental pass: which diagonal blocks to re-factor and
// which spoke columns (internal positions) changed.
type incrPlan struct {
	blocks   []int // dirty block indices, ascending
	dirtyPos []int // dirty spoke positions, ascending
}

// SetRebuildPolicy replaces the auto-mode thresholds; zero fields select
// the defaults. The policy is serving configuration, not index state — it
// is not serialized and resets to defaults on load.
func (d *Dynamic) SetRebuildPolicy(p RebuildPolicy) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.policy = p
}

// RebuildPolicy returns the auto-mode thresholds in effect (defaults
// resolved).
func (d *Dynamic) RebuildPolicy() RebuildPolicy {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.policy.withDefaults()
}

// LastRebuild returns the report of the most recently completed rebuild,
// if any — the source for the bear_rebuild_* metrics.
func (d *Dynamic) LastRebuild() (RebuildReport, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.lastRebuild == nil {
		return RebuildReport{}, false
	}
	return *d.lastRebuild, true
}

// Rebuild folds all accepted updates into fresh precomputed matrices in
// auto mode, resetting the per-query update cost to zero. It is
// RebuildCtx with a background context, discarding the report.
func (d *Dynamic) Rebuild() error {
	_, err := d.RebuildCtx(context.Background(), RebuildAuto)
	return err
}

// RebuildCtx rebuilds the precomputed matrices in the requested mode.
//
// The expensive work runs outside the lock against an immutable snapshot
// of the current graph, so queries and updates keep flowing while it
// runs: queries are answered exactly from the old matrices
// (Woodbury-corrected), and nodes updated during the rebuild window
// simply stay dirty — relative to the new base — after the atomic swap.
// Only one rebuild may run at a time; concurrent calls fail fast with
// ErrRebuildInProgress.
//
// RebuildIncremental re-factors only the diagonal blocks of H₁₁ that
// contain dirty nodes (Lemma 1 localizes a spoke column change to its own
// block), splices the fresh factors into L₁⁻¹/U₁⁻¹, patches the dirty
// blocks' contributions to the Schur complement through the retained
// U₁⁻¹L₁⁻¹H₁₂ cache, and re-factors S — bounding rebuild cost by churn,
// not graph size, at the price of reusing the existing ordering.
// Query results are bit-identical to a full re-factorization under that
// same ordering. The mode errors when the pending updates disqualify it;
// RebuildAuto falls back to a full pass instead and records the reason in
// the report. Cancellation on ctx aborts between stages (and between
// blocks) with the old state intact.
func (d *Dynamic) RebuildCtx(ctx context.Context, mode RebuildMode) (RebuildReport, error) {
	switch mode {
	case RebuildAuto, RebuildFull, RebuildIncremental:
	case "":
		mode = RebuildAuto
	default:
		return RebuildReport{}, fmt.Errorf("core: rebuild mode %q must be auto, full, or incremental", mode)
	}
	d.mu.Lock()
	if d.rebuilding {
		d.mu.Unlock()
		return RebuildReport{}, ErrRebuildInProgress
	}
	rep := RebuildReport{
		Requested:   mode,
		Mode:        RebuildFull,
		DirtyNodes:  len(d.dirty),
		TotalBlocks: len(d.p.Blocks),
	}
	var plan *incrPlan
	if mode != RebuildFull {
		pl, reason := d.incrementalPlanLocked()
		switch {
		case reason == "":
			rep.Mode = RebuildIncremental
			plan = pl
		case mode == RebuildIncremental && reason == FallbackNoPending:
			// Nothing changed: the incremental rebuild of an empty dirty
			// set is a no-op, not a hidden full pass.
			rep.Mode = RebuildIncremental
			d.lastRebuild = &rep
			d.mu.Unlock()
			return rep, nil
		case mode == RebuildIncremental:
			d.mu.Unlock()
			return RebuildReport{}, fmt.Errorf("core: %w: %s", ErrIncrementalNotApplicable, reason)
		default:
			rep.FallbackReason = reason
		}
	}
	d.rebuilding = true
	d.sinceSnap = nil
	snap := d.materializeLocked() // immutable; updates swap in a fresh cache
	base, oldP, opts := d.base, d.p, d.opts
	d.mu.Unlock()

	start := time.Now()
	var p *Precomputed
	var err error
	if plan != nil {
		p, err = rebuildIncremental(ctx, base, snap, oldP, plan, &rep)
	} else {
		p, err = preprocessCtx(ctx, snap, opts, true)
		if err == nil {
			rep.TimeOrdering = p.Stats.TimeOrdering
			rep.TimeBlockLU = p.Stats.TimeLU1
			rep.TimeSchurAssembly = p.Stats.TimeSchur
			rep.TimeSchurFactor = p.Stats.TimeLU2
			rep.BlocksRefactored = p.Stats.NumBlocks
			rep.TotalBlocks = p.Stats.NumBlocks
		}
	}
	rep.TimeTotal = time.Since(start)
	if err == nil && plan != nil {
		if tr := obsv.FromContext(ctx); tr != nil {
			tr.Add(obsv.SpanBlockLU, rep.TimeBlockLU)
			tr.Add(obsv.SpanBlockSplice, rep.TimeSplice)
			tr.Add(obsv.SpanSchurAssembly, rep.TimeSchurAssembly)
			tr.Add(obsv.SpanSchurFactor, rep.TimeSchurFactor)
		}
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	d.rebuilding = false
	if err != nil {
		d.sinceSnap = nil
		return RebuildReport{}, err
	}
	d.base, d.p = snap, p
	d.dirty = d.sinceSnap // updates accepted while the rebuild ran
	d.sinceSnap = nil
	// Shrink the overlay to the rows still differing from the new base —
	// exactly the window updates. Overlay rows are complete replacements,
	// so they stay valid against the new base verbatim, and an existing
	// curCache still describes the current graph: the swap changed which
	// base it is expressed against, not its contents.
	if len(d.dirty) == 0 {
		d.overlay = nil
	} else {
		kept := make(map[int]nodeRow, len(d.dirty))
		for _, u := range d.dirty {
			kept[u] = d.overlay[u]
		}
		d.overlay = kept
	}
	d.capMat, d.hw = nil, nil
	d.hwByNode = nil // solved against the old base; useless after the swap
	if rep.Mode == RebuildFull {
		d.lastFullNNZ = p.NNZ()
	}
	d.lastRebuild = &rep
	// The swap changes which Precomputed answers queries (and resets the
	// Woodbury correction), so cached results must not carry across it even
	// though the graph itself did not change at this instant.
	d.epoch++
	return rep, nil
}

// incrementalPlanLocked decides whether the pending updates qualify for
// the dirty-block path, returning the plan or the fallback reason. The
// caller must hold the write lock.
func (d *Dynamic) incrementalPlanLocked() (*incrPlan, string) {
	p := d.p
	if len(d.dirty) == 0 {
		return nil, FallbackNoPending
	}
	if d.opts.DropTol > 0 {
		return nil, FallbackDropTol
	}
	if d.opts.Laplacian {
		return nil, FallbackLaplacian
	}
	if p.incr == nil {
		return nil, FallbackNoCache
	}
	pol := d.policy.withDefaults()
	if float64(len(d.dirty)) > pol.MaxChurnFraction*float64(p.N) {
		return nil, FallbackChurn
	}
	if d.lastFullNNZ > 0 && float64(p.NNZ()) > pol.MaxFillRatio*float64(d.lastFullNNZ) {
		return nil, FallbackFillRatio
	}
	blockSet := make(map[int]bool)
	dirtyPos := make([]int, 0, len(d.dirty))
	for _, u := range d.dirty {
		pos := p.Perm[u]
		if pos >= p.N1 {
			return nil, FallbackHubDirty
		}
		b := p.blockOfPos(pos)
		// Every current destination must be a hub or a spoke of the same
		// block: an edge into another block would put a nonzero outside
		// the block diagonal of H₁₁ under the reused partition. (Clean
		// rows respect this by construction — the partition came from the
		// base graph, and every prior incremental rebuild enforced it.)
		dst, _ := d.curRowLocked(u)
		for _, v := range dst {
			if pv := p.Perm[v]; pv < p.N1 && p.blockOfPos(pv) != b {
				return nil, FallbackCrossBlock
			}
		}
		blockSet[b] = true
		dirtyPos = append(dirtyPos, pos)
	}
	sort.Ints(dirtyPos)
	blocks := make([]int, 0, len(blockSet))
	for b := range blockSet {
		blocks = append(blocks, b)
	}
	sort.Ints(blocks)
	return &incrPlan{blocks: blocks, dirtyPos: dirtyPos}, ""
}

// rebuildIncremental runs the dirty-block rebuild against immutable
// inputs: the graph old was built from (base), the snapshot graph, the
// old Precomputed, and the plan. It never mutates old — concurrent
// queries keep reading it — and returns a new Precomputed whose query
// results are bit-identical to a full re-factorization of the snapshot
// under the reused ordering. Every stage is the full pass's own
// (factorBlock, hColumn, schurComplement, factorSchur, finish), run over
// the dirty blocks only.
func rebuildIncremental(ctx context.Context, base, snap *graph.Graph, old *Precomputed, plan *incrPlan, rep *RebuildReport) (*Precomputed, error) {
	// Stage 1 (Algorithm 1 line 5, dirty blocks only): rebuild each dirty
	// diagonal block of H₁₁ from the snapshot rows and re-factor it.
	tlu := time.Now()
	lSplices := make([]sparse.RowSplice, len(plan.blocks))
	uSplices := make([]sparse.RowSplice, len(plan.blocks))
	for i, b := range plan.blocks {
		lo, hi := old.BlockOffsets[b], old.BlockOffsets[b+1]
		li, ui, err := factorBlock(ctx, b, old.h11Block(snap, lo, hi))
		if err != nil {
			return nil, fmt.Errorf("core: incremental rebuild: %w", err)
		}
		lSplices[i] = sparse.RowSplice{Lo: lo, ColOffset: lo, Block: li}
		uSplices[i] = sparse.RowSplice{Lo: lo, ColOffset: lo, Block: ui}
	}
	rep.TimeBlockLU = time.Since(tlu)
	rep.BlocksRefactored = len(plan.blocks)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: incremental rebuild aborted after block LU: %w", err)
	}

	// Stage 2: splice the fresh block factors into L₁⁻¹/U₁⁻¹ (block-row
	// range surgery — rows outside the dirty blocks keep their bits), and
	// replace the dirty columns of H₂₁ (the hub rows of the changed
	// columns of H). The retained exact H, when present, gets the same
	// column replacement so Residual and refinement stay truthful. |H|
	// moves by each dirty column's new length minus its old one, whether
	// or not H is retained.
	tsplice := time.Now()
	l1inv := old.L1Inv.SpliceRows(lSplices)
	u1inv := old.U1Inv.SpliceRows(uSplices)
	var hcoords, h21coords, oldCol []sparse.Coord
	nnzH := old.Stats.NNZH
	for _, pos := range plan.dirtyPos {
		start := len(hcoords)
		hcoords = old.hColumn(hcoords, snap, pos)
		oldCol = old.hColumn(oldCol[:0], base, pos)
		nnzH += len(hcoords) - start - len(oldCol)
		for _, e := range hcoords[start:] {
			if e.Row >= old.N1 {
				h21coords = append(h21coords, sparse.Coord{Row: e.Row - old.N1, Col: pos, Val: e.Val})
			}
		}
	}
	h21 := old.H21.ReplaceColumns(plan.dirtyPos, h21coords)
	var hFull *sparse.CSR
	if old.H != nil {
		hFull = old.H.ReplaceColumns(plan.dirtyPos, hcoords)
	}
	rep.TimeSplice = time.Since(tsplice)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: incremental rebuild aborted after splice: %w", err)
	}

	// Stage 3 (line 6, patched): only the dirty blocks' rows of
	// t2 = U₁⁻¹L₁⁻¹H₁₂ changed — the factors are block diagonal, so row
	// range [lo,hi) of t2 depends only on block b's factors and H₁₂ rows.
	// Recompute those rows with the fresh factors, splice them into the
	// retained cache, and re-assemble S = H₂₂ − H₂₁·t2. H₂₂ and H₁₂ carry
	// no spoke columns, so they are untouched by spoke-only churn.
	tassembly := time.Now()
	t2Splices := make([]sparse.RowSplice, len(plan.blocks))
	for i, sp := range lSplices {
		h12b := old.H12.Submatrix(sp.Lo, sp.Lo+sp.Block.R, 0, old.N2)
		t2b := sparse.Mul(uSplices[i].Block, sparse.Mul(sp.Block, h12b))
		t2Splices[i] = sparse.RowSplice{Lo: sp.Lo, ColOffset: 0, Block: t2b}
	}
	t2 := old.incr.t2.SpliceRows(t2Splices)
	s := schurComplement(old.incr.h22, h21, t2)
	rep.TimeSchurAssembly = time.Since(tassembly)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: incremental rebuild aborted after Schur assembly: %w", err)
	}

	// Stage 4 (line 8): re-factor S under the existing hub order. S is the
	// small dense heart of the index; a full re-factor here is still
	// O(churn)-dominated for the overall rebuild because every O(graph)
	// stage (the ordering, every block's LU, full Schur products over n₁)
	// is gone.
	tfactor := time.Now()
	l2inv, u2inv, sperm, err := factorSchur(s, denseSchurCutoff)
	if err != nil {
		return nil, fmt.Errorf("core: incremental rebuild factoring Schur complement: %w", err)
	}
	rep.TimeSchurFactor = time.Since(tfactor)

	// Assemble the new Precomputed. Ordering, partition, H₁₂, and the
	// permutations are shared with the old index (immutable); everything
	// touched above is fresh.
	outDeg := append([]float64(nil), old.OutDegree...)
	for _, pos := range plan.dirtyPos {
		u := old.InvPerm[pos]
		outDeg[u] = outWeight(snap, u)
	}
	p2 := &Precomputed{
		N: old.N, N1: old.N1, N2: old.N2, C: old.C,
		Blocks:    old.Blocks,
		Perm:      old.Perm,
		InvPerm:   old.InvPerm,
		L1Inv:     l1inv,
		U1Inv:     u1inv,
		H12:       old.H12,
		H21:       h21,
		L2Inv:     l2inv,
		U2Inv:     u2inv,
		SPerm:     sperm,
		H:         hFull,
		OutDegree: outDeg,
		incr:      &rebuildCache{t2: t2, h22: old.incr.h22},
	}
	p2.kern.h12 = old.kern.h12
	p2.finish()
	p2.Stats = old.Stats
	p2.Stats.M = snap.M()
	p2.Stats.NNZH = nnzH
	p2.Stats.NNZH12H21 = old.H12.NNZ() + h21.NNZ()
	p2.Stats.NNZL1U1 = l1inv.NNZ() + u1inv.NNZ()
	p2.Stats.NNZL2U2 = l2inv.NNZ() + u2inv.NNZ()
	return p2, nil
}
