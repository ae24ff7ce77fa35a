package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"bear/internal/dense"
	"bear/internal/graph"
	"bear/internal/obsv"
	"bear/internal/sparse"
)

// ErrRebuildInProgress is returned by Rebuild when another rebuild of the
// same Dynamic is already running; the caller can simply wait for it (the
// in-flight rebuild folds a snapshot of the updates the caller observed).
var ErrRebuildInProgress = errors.New("core: rebuild already in progress")

// nodeRow is the complete current out-row of an updated node: destinations
// sorted and duplicate-free (the canonical form graph.Builder produces),
// weights finite and non-negative. Rows are immutable once installed —
// every mutation replaces the whole row — so they may alias graph storage.
type nodeRow struct {
	dst []int
	w   []float64
}

// Dynamic extends BEAR toward the paper's stated future work — frequently
// changing graphs — without re-running the preprocessing phase on every
// change. Replacing the out-edges of a node u changes exactly one column
// of H = I − (1−c)Ãᵀ, so a batch of k touched nodes is a rank-k update
// H' = H + W Eᵀ, and queries against H' are answered through the
// Sherman–Morrison–Woodbury identity using the already-preprocessed BEAR
// matrices as the H⁻¹ oracle:
//
//	H'⁻¹ q = H⁻¹q − (H⁻¹W) (I_k + Eᵀ H⁻¹ W)⁻¹ Eᵀ (H⁻¹ q).
//
// Queries stay exact at O(k+1) block-elimination solves plus a k×k dense
// inverse, so the layer is efficient while k (the number of touched nodes
// since the last Rebuild) stays small; Rebuild folds the changes into a
// fresh preprocessing pass when it grows.
//
// Dynamic is safe for concurrent use: queries proceed in parallel and
// serialize only against updates and rebuilds.
type Dynamic struct {
	mu   sync.RWMutex
	n    int          // node count; no update or rebuild changes it
	base *graph.Graph // graph the precomputed matrices reflect
	p    *Precomputed
	opts Options

	// The current graph is represented as base plus a per-node row
	// overlay, so a single-node update costs O(|row|), not an O(N+M)
	// whole-graph rebuild. overlay holds the complete current rows of
	// nodes whose out-edges differ from base; every other row is read from
	// base. curCache memoizes the materialized current graph and is nil
	// while stale (invalidated by every accepted update).
	overlay  map[int]nodeRow
	curCache *graph.Graph

	// Row-normalized adjacency of the materialized current graph, used by
	// the hybrid top-k push phase. Keyed by graph identity (normFor), so it
	// needs no explicit invalidation: a graph-state change replaces
	// curCache and the next lookup simply misses.
	normFor *graph.Graph
	norm    *sparse.CSR

	// Reusable push engines for the hybrid top-k push phase. A Pusher
	// carries O(N) state whose reset cost is proportional to the previous
	// query's footprint, so reuse makes a failed certification attempt
	// cost its pushes, not four fresh length-N allocations. Entries are
	// keyed by the normalized matrix they were built over (pusherEntry.a)
	// and dropped on mismatch, which retires them naturally after updates.
	pushers sync.Pool

	// pushStrikes counts consecutive hybrid top-k push attempts against
	// the matrix pushStrikesFor that failed to certify. At topKPushStrikes
	// the push phase is skipped outright for that matrix: on graphs whose
	// structure defeats push certification, paying the probe tax on every
	// query would erase the block-pruned solve's win. Any certification
	// success or graph change resets the count.
	pushStrikesFor *sparse.CSR
	pushStrikes    int

	dirty []int // nodes whose out-edges differ from base, sorted

	// Woodbury cache, invalidated on every update.
	capMat *dense.Matrix // (I_k + Eᵀ H⁻¹ W)⁻¹
	hw     [][]float64   // columns of H⁻¹ W, indexed like dirty

	// hwByNode persists solved H⁻¹W columns across update batches: column
	// u depends only on u's own delta against the base, so another node
	// going dirty invalidates the capacitance matrix but not the solved
	// columns. refreshWoodbury then solves only the columns that are
	// actually new. Entries die with their delta: markDirty(u) evicts u's
	// column, and a rebuild swap clears the map (new base, new H⁻¹).
	hwByNode map[int][]float64

	// Rebuild-in-flight state. While a rebuild preprocesses a snapshot of
	// the current graph outside the lock, queries keep serving the old
	// precomputed matrices (Woodbury-corrected through dirty as usual) and
	// sinceSnap records the nodes updated after the snapshot was taken —
	// they become the new dirty set when the rebuilt matrices are swapped
	// in.
	rebuilding bool
	sinceSnap  []int

	// epoch counts state transitions visible to query results: every
	// accepted update and every rebuild swap increments it. Result caches
	// key on it — see Epoch.
	epoch uint64

	// Incremental-rebuild bookkeeping: the auto-mode thresholds, the last
	// completed rebuild's report, and the precomputed NNZ as of the last
	// full build (the fill-ratio baseline — incremental rebuilds reuse a
	// stale ordering, so their factors may slowly densify).
	policy      RebuildPolicy
	lastRebuild *RebuildReport
	lastFullNNZ int64
}

// NewDynamic preprocesses g and wraps it for incremental updates.
func NewDynamic(g *graph.Graph, opts Options) (*Dynamic, error) {
	return NewDynamicCtx(context.Background(), g, opts)
}

// NewDynamicCtx is NewDynamic honoring cancellation on ctx during the
// initial preprocessing pass (see PreprocessCtx).
func NewDynamicCtx(ctx context.Context, g *graph.Graph, opts Options) (*Dynamic, error) {
	// A Dynamic exists to be updated and rebuilt, so always retain the
	// Schur-assembly cache that makes incremental rebuilds possible
	// (preprocessCtx still skips it when the index shape disqualifies the
	// incremental path, e.g. DropTol > 0).
	opts.RetainRebuildCache = true
	p, err := PreprocessCtx(ctx, g, opts)
	if err != nil {
		return nil, err
	}
	return &Dynamic{n: g.N(), base: g, curCache: g, p: p, opts: opts, lastFullNNZ: p.NNZ()}, nil
}

// Precomputed returns the underlying BEAR state (reflecting the graph as
// of the last Rebuild, not pending updates).
func (d *Dynamic) Precomputed() *Precomputed {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.p
}

// Graph returns the current graph with all updates applied, materializing
// it from the base graph and the update overlay if no materialized form is
// cached. The returned graph is immutable; repeated calls between updates
// return the same instance.
func (d *Dynamic) Graph() *graph.Graph {
	d.mu.RLock()
	g := d.curCache
	d.mu.RUnlock()
	if g != nil {
		return g
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.materializeLocked()
}

// materializeLocked returns the current graph, building and caching it
// from base ⊕ overlay when stale. Callers must hold the write lock.
func (d *Dynamic) materializeLocked() *graph.Graph {
	if d.curCache != nil {
		return d.curCache
	}
	if len(d.overlay) == 0 {
		d.curCache = d.base
		return d.base
	}
	n := d.base.N()
	rowPtr := make([]int, n+1)
	for u := 0; u < n; u++ {
		if row, ok := d.overlay[u]; ok {
			rowPtr[u+1] = rowPtr[u] + len(row.dst)
		} else {
			rowPtr[u+1] = rowPtr[u] + d.base.OutDegree(u)
		}
	}
	colIdx := make([]int, 0, rowPtr[n])
	val := make([]float64, 0, rowPtr[n])
	for u := 0; u < n; u++ {
		dst, w := d.curRowLocked(u)
		colIdx = append(colIdx, dst...)
		val = append(val, w...)
	}
	d.curCache = graph.FromCSR(&sparse.CSR{R: n, C: n, RowPtr: rowPtr, ColIdx: colIdx, Val: val})
	return d.curCache
}

// curRowLocked returns node u's current out-row without materializing the
// whole graph: the overlay row if u was updated, the base row otherwise.
// The returned slices alias internal storage and must not be modified.
// Callers must hold the lock (read or write).
func (d *Dynamic) curRowLocked(u int) ([]int, []float64) {
	if row, ok := d.overlay[u]; ok {
		return row.dst, row.w
	}
	return d.base.Out(u)
}

// setRowLocked installs a canonical (sorted, duplicate-free, validated)
// row as node u's current out-edges and invalidates everything derived
// from the old row. The slices must be fresh or immutable — they are
// retained.
func (d *Dynamic) setRowLocked(u int, dst []int, w []float64) {
	if d.overlay == nil {
		d.overlay = make(map[int]nodeRow)
	}
	d.overlay[u] = nodeRow{dst: dst, w: w}
	d.curCache = nil
	d.markDirty(u)
}

// Options returns the preprocessing options this Dynamic was built (and
// rebuilds) with.
func (d *Dynamic) Options() Options {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.opts
}

// PendingNodes reports how many nodes' out-edges differ from the
// preprocessed graph; query cost grows with this count.
func (d *Dynamic) PendingNodes() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.dirty)
}

// UpdateNode replaces the out-edges of node u with the given destinations
// and weights (parallel slices; duplicates are summed). Weights must be
// finite and non-negative — +Inf is rejected along with NaN and negatives,
// since an infinite weight poisons the row normalization into NaN scores.
func (d *Dynamic) UpdateNode(u int, dst []int, w []float64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.updateNodeLocked(u, dst, w)
}

func (d *Dynamic) updateNodeLocked(u int, dst []int, w []float64) error {
	n := d.base.N()
	if u < 0 || u >= n {
		return fmt.Errorf("core: node %d out of range [0,%d)", u, n)
	}
	if len(dst) != len(w) {
		return fmt.Errorf("core: %d destinations but %d weights", len(dst), len(w))
	}
	for i, v := range dst {
		if v < 0 || v >= n {
			return fmt.Errorf("core: destination %d out of range [0,%d)", v, n)
		}
		if w[i] < 0 || math.IsNaN(w[i]) || math.IsInf(w[i], 0) {
			return fmt.Errorf("core: weight %g for edge %d->%d; must be finite and non-negative", w[i], u, v)
		}
	}
	// Canonicalize into fresh slices: sorted by destination, duplicates
	// merged by summing (the form graph.Builder would produce).
	nd := append([]int(nil), dst...)
	nw := append([]float64(nil), w...)
	if !sort.IntsAreSorted(nd) {
		ord := make([]int, len(nd))
		for i := range ord {
			ord[i] = i
		}
		sort.SliceStable(ord, func(a, b int) bool { return dst[ord[a]] < dst[ord[b]] })
		for i, j := range ord {
			nd[i], nw[i] = dst[j], w[j]
		}
	}
	out := 0
	for i := 0; i < len(nd); i++ {
		if out > 0 && nd[out-1] == nd[i] {
			nw[out-1] += nw[i]
			if math.IsInf(nw[out-1], 0) {
				// Individually finite duplicates can still overflow when
				// summed; an infinite merged weight would poison the row
				// normalization into NaN scores just like a raw +Inf.
				return fmt.Errorf("core: merged weight for edge %d->%d overflows; must be finite", u, nd[out-1])
			}
			continue
		}
		nd[out], nw[out] = nd[i], nw[i]
		out++
	}
	d.setRowLocked(u, nd[:out], nw[:out])
	return nil
}

// AddEdge sets the directed edge u -> v to weight w on top of the current
// graph. A new edge is inserted; an existing edge has its weight replaced
// (update-in-place — AddEdge is idempotent, and re-adding an edge with the
// weight it already has is a no-op that leaves the node clean). The weight
// must be finite and non-negative. Cost is O(|row u|), independent of
// graph size.
func (d *Dynamic) AddEdge(u, v int, w float64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.base.N()
	if u < 0 || u >= n {
		return fmt.Errorf("core: node %d out of range [0,%d)", u, n)
	}
	if v < 0 || v >= n {
		return fmt.Errorf("core: destination %d out of range [0,%d)", v, n)
	}
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("core: weight %g for edge %d->%d; must be finite and non-negative", w, u, v)
	}
	dst, wt := d.curRowLocked(u)
	k := sort.SearchInts(dst, v)
	if k < len(dst) && dst[k] == v {
		if wt[k] == w {
			return nil // row unchanged; nothing to invalidate
		}
		nw := append([]float64(nil), wt...)
		nw[k] = w
		d.setRowLocked(u, append([]int(nil), dst...), nw)
		return nil
	}
	nd := make([]int, 0, len(dst)+1)
	nd = append(append(append(nd, dst[:k]...), v), dst[k:]...)
	nw := make([]float64, 0, len(wt)+1)
	nw = append(append(append(nw, wt[:k]...), w), wt[k:]...)
	d.setRowLocked(u, nd, nw)
	return nil
}

// RemoveEdge deletes the directed edge u -> v; removing a missing edge is
// an error. Cost is O(|row u|), independent of graph size.
func (d *Dynamic) RemoveEdge(u, v int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.base.N()
	if u < 0 || u >= n {
		return fmt.Errorf("core: node %d out of range [0,%d)", u, n)
	}
	dst, wt := d.curRowLocked(u)
	k := sort.SearchInts(dst, v)
	if k >= len(dst) || dst[k] != v {
		return fmt.Errorf("core: edge %d->%d does not exist", u, v)
	}
	nd := make([]int, 0, len(dst)-1)
	nd = append(append(nd, dst[:k]...), dst[k+1:]...)
	nw := make([]float64, 0, len(wt)-1)
	nw = append(append(nw, wt[:k]...), wt[k+1:]...)
	d.setRowLocked(u, nd, nw)
	return nil
}

func (d *Dynamic) markDirty(u int) {
	d.epoch++
	d.capMat, d.hw = nil, nil
	delete(d.hwByNode, u) // u's delta changed; other columns stay valid
	// A node whose row went back to its base contents could be dropped
	// here; detecting that costs a row comparison and the win is rare, so
	// the node simply stays dirty until the next Rebuild.
	d.dirty = insertSorted(d.dirty, u)
	if d.rebuilding {
		d.sinceSnap = insertSorted(d.sinceSnap, u)
	}
}

// insertSorted inserts u into the sorted set s, keeping it sorted and
// duplicate-free.
func insertSorted(s []int, u int) []int {
	i := sort.SearchInts(s, u)
	if i < len(s) && s[i] == u {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = u
	return s
}

// Epoch returns a counter that increments on every accepted update and
// every rebuild swap. Two queries observing the same epoch are answered
// from the same graph state, so results may be cached under a key that
// includes the epoch; the count read *before* issuing a query is a safe
// cache key for its result (a concurrent transition can only make the
// cached value fresher than the key promises, never staler).
func (d *Dynamic) Epoch() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.epoch
}

// RebuildInProgress reports whether a Rebuild is currently preprocessing in
// the background. Queries remain exact (and non-blocking) throughout.
func (d *Dynamic) RebuildInProgress() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.rebuilding
}

// deltaColumn returns δ_u = H'(:,u) − H(:,u) as a dense vector: the column
// of H touched by node u's row change, since column u of H is
// e_u − (1−c)·(row u of Ã)ᵀ.
func (d *Dynamic) deltaColumn(u int) []float64 {
	delta := make([]float64, d.p.N)
	scatter := func(dst []int, w []float64, sign float64) {
		var total float64
		for _, x := range w {
			total += x
		}
		if total == 0 {
			return
		}
		for k, v := range dst {
			delta[v] += sign * -(1 - d.p.C) * w[k] / total
		}
	}
	cd, cw := d.curRowLocked(u)
	scatter(cd, cw, 1)
	bd, bw := d.base.Out(u)
	scatter(bd, bw, -1)
	return delta
}

// refreshWoodbury rebuilds the capacitance matrix for the current dirty
// set, solving H⁻¹W columns only for nodes whose column is not already in
// the per-node cache — the per-batch cost is O(new dirty nodes) solves
// plus the k×k capacitance assembly, not O(k) solves. Cancellation is
// checked between the column solves; a cancelled refresh leaves the batch
// cache invalid so the next query redoes it (columns solved before the
// cancellation stay cached).
func (d *Dynamic) refreshWoodbury(ctx context.Context) error {
	defer obsv.FromContext(ctx).Start(obsv.SpanWoodburyRefresh).Stop()
	k := len(d.dirty)
	if d.hwByNode == nil {
		d.hwByNode = make(map[int][]float64, k)
	}
	d.hw = make([][]float64, k)
	ws := d.p.AcquireWorkspace()
	for i, u := range d.dirty {
		if col, ok := d.hwByNode[u]; ok {
			d.hw[i] = col
			continue
		}
		col := make([]float64, d.p.N)
		if err := d.p.solveToCtx(ctx, col, d.deltaColumn(u), ws); err != nil {
			d.p.ReleaseWorkspace(ws)
			d.hw = nil
			return err
		}
		d.hwByNode[u] = col
		d.hw[i] = col
	}
	d.p.ReleaseWorkspace(ws)
	cap := dense.Identity(k)
	for i, u := range d.dirty {
		for j := 0; j < k; j++ {
			cap.Data[i*k+j] += d.hw[j][u]
		}
	}
	inv, err := dense.Inverse(cap)
	if err != nil {
		d.hw = nil
		return fmt.Errorf("core: singular Woodbury capacitance matrix (the update may make H singular): %w", err)
	}
	d.capMat = inv
	return nil
}

// QueryDist computes exact RWR scores on the *current* graph for an
// arbitrary starting distribution, correcting the preprocessed solution
// for all pending updates.
func (d *Dynamic) QueryDist(q []float64) ([]float64, error) {
	return d.QueryDistCtx(context.Background(), q)
}

// QueryDistCtx is QueryDist honoring cancellation and deadlines on ctx,
// checked between the block-elimination stages and between the Woodbury
// correction terms. It allocates the result and calls QueryDistToCtx.
func (d *Dynamic) QueryDistCtx(ctx context.Context, q []float64) ([]float64, error) {
	dst := make([]float64, d.n)
	if err := d.QueryDistToCtx(ctx, dst, q); err != nil {
		return nil, err
	}
	return dst, nil
}

// QueryDistToCtx is QueryDistCtx writing into caller-owned dst (length N),
// which may alias q.
func (d *Dynamic) QueryDistToCtx(ctx context.Context, dst, q []float64) error {
	if len(q) != d.n {
		return fmt.Errorf("core: starting vector length %d, want %d", len(q), d.n)
	}
	for i, v := range q {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("core: starting vector entry %d is %g; must be non-negative", i, v)
		}
	}
	if len(dst) != d.n {
		return fmt.Errorf("core: destination length %d, want %d", len(dst), d.n)
	}
	if err := d.rlockCurrent(ctx); err != nil {
		return err
	}
	defer d.mu.RUnlock()
	ws := d.p.AcquireWorkspace()
	err := d.p.solveToCtx(ctx, dst, q, ws)
	d.p.ReleaseWorkspace(ws)
	if err != nil {
		return err
	}
	return d.correctLocked(ctx, dst)
}

// rlockCurrent returns holding the read lock with the Woodbury cache valid
// for the current dirty set, so queries run in parallel. The cache is
// built under the write lock; a concurrent update between the lock
// transitions invalidates it again, so this loops until it is seen valid
// under the read lock. On error no lock is held.
func (d *Dynamic) rlockCurrent(ctx context.Context) error {
	for {
		d.mu.RLock()
		if d.capMat != nil || len(d.dirty) == 0 {
			return nil
		}
		d.mu.RUnlock()
		d.mu.Lock()
		if d.capMat == nil && len(d.dirty) > 0 {
			if err := d.refreshWoodbury(ctx); err != nil {
				d.mu.Unlock()
				return err
			}
		}
		d.mu.Unlock()
	}
}

// correctLocked turns x = H⁻¹q, solved in dst against the preprocessed
// matrices, into the RWR scores of the current graph: it subtracts the
// Woodbury correction for the pending updates and applies the restart
// scaling c, both in place. Callers hold the read lock rlockCurrent took.
func (d *Dynamic) correctLocked(ctx context.Context, dst []float64) error {
	if k := len(d.dirty); k > 0 {
		// α = capMat · (Eᵀ x); x −= (H⁻¹W) α.
		sw := obsv.FromContext(ctx).Start(obsv.SpanWoodburyTerms)
		y := make([]float64, k)
		for i, u := range d.dirty {
			y[i] = dst[u]
		}
		alpha := d.capMat.MulVec(y)
		for i := range d.hw {
			if err := ctx.Err(); err != nil {
				return err
			}
			a := alpha[i]
			if a == 0 {
				continue
			}
			col := d.hw[i]
			for node := range dst {
				dst[node] -= a * col[node]
			}
		}
		sw.Stop()
	}
	for i := range dst {
		dst[i] *= d.p.C
	}
	return nil
}

// Query computes exact RWR scores on the current graph for a single seed.
func (d *Dynamic) Query(seed int) ([]float64, error) {
	return d.QueryCtx(context.Background(), seed)
}

// QueryCtx is Query honoring cancellation and deadlines on ctx. It
// allocates the result and calls QueryToCtx.
func (d *Dynamic) QueryCtx(ctx context.Context, seed int) ([]float64, error) {
	if err := d.checkSeed(seed); err != nil {
		return nil, err
	}
	dst := make([]float64, d.n)
	if err := d.QueryToCtx(ctx, dst, seed); err != nil {
		return nil, err
	}
	return dst, nil
}

// QueryToCtx is QueryCtx writing into caller-owned dst (length N). The
// seed goes straight to the block-restricted single-seed solve, the
// Woodbury correction and the c scaling are applied in place, and with
// no pending updates the query performs no heap allocations.
func (d *Dynamic) QueryToCtx(ctx context.Context, dst []float64, seed int) error {
	if err := d.checkSeed(seed); err != nil {
		return err
	}
	if len(dst) != d.n {
		return fmt.Errorf("core: destination length %d, want %d", len(dst), d.n)
	}
	if err := d.rlockCurrent(ctx); err != nil {
		return err
	}
	defer d.mu.RUnlock()
	ws := d.p.AcquireWorkspace()
	err := d.p.solveSeedToCtx(ctx, dst, d.p.Perm[seed], 1, ws)
	d.p.ReleaseWorkspace(ws)
	if err != nil {
		return err
	}
	return d.correctLocked(ctx, dst)
}

func (d *Dynamic) checkSeed(seed int) error {
	if seed < 0 || seed >= d.n {
		return fmt.Errorf("core: seed %d out of range [0,%d)", seed, d.n)
	}
	return nil
}

// QueryBatch computes exact RWR vectors for many seeds on the current
// graph; results are indexed like seeds.
func (d *Dynamic) QueryBatch(seeds []int, workers int) ([][]float64, error) {
	return d.QueryBatchCtx(context.Background(), seeds, workers)
}

// QueryBatchCtx is QueryBatch honoring cancellation and deadlines on ctx.
// It allocates the results and calls QueryBatchToCtx.
func (d *Dynamic) QueryBatchCtx(ctx context.Context, seeds []int, workers int) ([][]float64, error) {
	for _, s := range seeds {
		if err := d.checkSeed(s); err != nil {
			return nil, err
		}
	}
	out := make([][]float64, len(seeds))
	for i := range out {
		out[i] = make([]float64, d.n)
	}
	if err := d.QueryBatchToCtx(ctx, out, seeds, workers); err != nil {
		return nil, err
	}
	return out, nil
}

// QueryBatchToCtx is QueryBatchCtx writing into caller-owned dst (indexed
// like seeds, each vector of length N). With no pending updates it runs
// the blocked multi-RHS solver (one factor traversal per chunk of seeds,
// bit-identical to per-seed Query), fanning chunks out over workers
// goroutines (0 selects GOMAXPROCS); with pending updates it falls back to
// per-seed Woodbury-corrected queries, since the rank-k correction is
// per-vector anyway.
func (d *Dynamic) QueryBatchToCtx(ctx context.Context, dst [][]float64, seeds []int, workers int) error {
	d.mu.RLock()
	p, clean := d.p, len(d.dirty) == 0
	d.mu.RUnlock()
	if clean {
		// p is immutable, so the batch is answered consistently from the
		// state captured above even if updates or a rebuild swap land
		// mid-batch (the same guarantee per-seed queries give: results
		// reflect the graph as of when the query began).
		return p.queryBatchTo(ctx, dst, seeds, workers, nil)
	}
	if len(dst) != len(seeds) {
		return fmt.Errorf("core: %d destinations for %d seeds", len(dst), len(seeds))
	}
	for i, s := range seeds {
		if err := d.QueryToCtx(ctx, dst[i], s); err != nil {
			return err
		}
	}
	return nil
}
