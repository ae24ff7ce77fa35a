package core

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"bear/internal/footer"
	"bear/internal/graph"
	"bear/internal/ordering"
)

// dynMagic identifies a serialized Dynamic: preprocessing options, base
// graph, precomputed matrices, and — if updates are pending — the current
// graph and dirty set. The file carries the same length/CRC32 footer as
// the v2 precomputed format, so a truncated or bit-flipped snapshot is
// rejected instead of restoring silent garbage.
var dynMagic = [8]byte{'B', 'E', 'A', 'R', 'D', 'Y', '0', '1'}

// dynMagic2 identifies version 2 of the dynamic-state format: version 1
// plus the KeepH option flag and the retained exact H (when present) in
// the embedded precomputed payload. States that carry neither are still
// written as version 1, byte-identical to before.
var dynMagic2 = [8]byte{'B', 'E', 'A', 'R', 'D', 'Y', '0', '2'}

// dynMagic3 identifies version 3 of the dynamic-state format: version 2
// with the KeepH and with-H flags always explicit, followed by the name
// of the ordering engine that produced the index, so a restored Dynamic
// rebuilds with the same engine. States ordered by SlashBurn are still
// written as version 1 or 2, byte-identical to before; versions 1 and 2
// restore as slashburn.
var dynMagic3 = [8]byte{'B', 'E', 'A', 'R', 'D', 'Y', '0', '3'}

// namelessOrdering is the engine behind every version 1 and 2 state: both
// formats predate pluggable orderings and carry no engine name. It is tied
// to SlashBurn itself, not to ordering.Default, so changing the default
// engine never reorders an old snapshot on its next rebuild.
var namelessOrdering = ordering.SlashBurn{}.Name()

// SaveState serializes the full dynamic-serving state: a restored Dynamic
// answers every query bit-identically to this one, including the exact
// Woodbury corrections for pending updates. The state captured is the last
// committed one; an in-flight background Rebuild is not waited for.
func (d *Dynamic) SaveState(w io.Writer) error {
	// The write lock (rather than RLock) lets the pending-update overlay be
	// materialized into the current graph if no materialization is cached;
	// the lock is held only for that O(N+M) pass, not for the I/O below
	// (every captured component is immutable once read).
	d.mu.Lock()
	base, p, opts := d.base, d.p, d.opts
	dirty := append([]int(nil), d.dirty...)
	cur := d.materializeLocked()
	d.mu.Unlock()

	withH := opts.KeepH || p.H != nil
	// Version 3 exists only to carry an ordering name; indexes ordered by
	// SlashBurn keep writing the older formats byte-identically.
	v3 := ordering.Normalize(opts.Ordering) != namelessOrdering
	bw := bufio.NewWriter(w)
	cw := footer.NewWriter(bw)
	e := &encoder{w: cw}
	switch {
	case v3:
		e.bytes(dynMagic3[:])
	case withH:
		e.bytes(dynMagic2[:])
	default:
		e.bytes(dynMagic[:])
	}
	e.f64(opts.C)
	e.f64(opts.DropTol)
	e.f64(opts.HubRatio)
	e.i64(int64(opts.K))
	// Two retired option slots (the dense-Schur cutoff and the worker
	// count) stay in every version, written as 0, so the formats do not
	// change.
	e.i64(0)
	e.i64(0)
	e.bool(opts.Laplacian)
	e.bool(opts.NoHubOrder)
	if v3 {
		e.bool(opts.KeepH)
		e.bool(withH)
		e.str(ordering.Normalize(opts.Ordering))
	} else if withH {
		e.bool(opts.KeepH)
	}
	encodeGraph(e, base)
	p.encodePayload(e, withH)
	e.ints(dirty)
	if len(dirty) == 0 {
		e.bool(false) // cur == base; don't store the graph twice
	} else {
		e.bool(true)
		encodeGraph(e, cur)
	}
	if e.err != nil {
		return fmt.Errorf("core: saving dynamic state: %w", e.err)
	}
	if err := cw.WriteFooter(); err != nil {
		return fmt.Errorf("core: saving dynamic state: %w", err)
	}
	return bw.Flush()
}

// LoadDynamic reads state previously written by SaveState, verifying the
// integrity footer. On any error — bad magic, truncation, CRC mismatch,
// or inconsistent contents — it returns nil and the error; it never
// returns a partially populated Dynamic.
func LoadDynamic(r io.Reader) (*Dynamic, error) {
	cr := footer.NewReader(bufio.NewReader(r))
	d := &decoder{r: cr}
	var got [8]byte
	d.bytes(got[:])
	if d.err != nil {
		return nil, fmt.Errorf("core: loading dynamic state: %w", d.err)
	}
	if got != dynMagic && got != dynMagic2 && got != dynMagic3 {
		return nil, fmt.Errorf("core: bad magic %q; not a BEAR dynamic-state file", got[:])
	}
	v3 := got == dynMagic3
	withH := got == dynMagic2
	var opts Options
	opts.C = d.f64()
	opts.DropTol = d.f64()
	opts.HubRatio = d.f64()
	opts.K = int(d.i64())
	d.i64() // retired dense-Schur cutoff slot
	d.i64() // retired worker-count slot
	opts.Laplacian = d.bool()
	opts.NoHubOrder = d.bool()
	opts.Ordering = namelessOrdering
	switch {
	case v3:
		opts.KeepH = d.bool()
		withH = d.bool()
		opts.Ordering = d.str()
		if d.err == nil {
			if _, err := ordering.Get(opts.Ordering); err != nil {
				// An unknown engine means a rebuild could not reproduce the
				// partition the stored factors depend on — refuse the file
				// explicitly rather than silently reordering differently.
				return nil, fmt.Errorf("core: loading dynamic state: %w", err)
			}
		}
	case withH:
		opts.KeepH = d.bool()
	}
	base := decodeGraph(d)
	if d.err != nil {
		return nil, fmt.Errorf("core: loading dynamic state: %w", d.err)
	}
	p, err := decodePayload(d, withH)
	if err != nil {
		return nil, err
	}
	dirty := d.ints()
	cur := base
	if d.bool() {
		cur = decodeGraph(d)
	}
	if d.err != nil {
		return nil, fmt.Errorf("core: loading dynamic state: %w", d.err)
	}
	if err := cr.Check("file"); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return RestoreDynamic(base, cur, p, dirty, opts)
}

// RestoreDynamic reassembles a Dynamic from its components: the base graph
// the precomputed matrices reflect, the current graph with all accepted
// updates applied, and the sorted dirty-node set. It validates the pieces
// against each other so a Dynamic can only be built from a consistent
// state.
func RestoreDynamic(base, cur *graph.Graph, p *Precomputed, dirty []int, opts Options) (*Dynamic, error) {
	if base == nil || cur == nil || p == nil {
		return nil, fmt.Errorf("core: restore from nil component")
	}
	if _, err := ordering.Get(opts.Ordering); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	if base.N() != p.N || cur.N() != p.N {
		return nil, fmt.Errorf("core: restore size mismatch: base n=%d cur n=%d precomputed n=%d",
			base.N(), cur.N(), p.N)
	}
	for i, u := range dirty {
		if u < 0 || u >= p.N {
			return nil, fmt.Errorf("core: restore dirty node %d out of range [0,%d)", u, p.N)
		}
		if i > 0 && dirty[i-1] >= u {
			return nil, fmt.Errorf("core: restore dirty set not sorted and unique at index %d", i)
		}
	}
	if len(dirty) == 0 && cur != base && cur.M() != base.M() {
		return nil, fmt.Errorf("core: restore has no dirty nodes but base and current graphs differ")
	}
	// Rebuild the row overlay from the dirty set: exactly the dirty rows
	// may differ from base, so the overlay holds their cur rows (aliasing
	// cur's immutable storage; rows are never mutated in place) and cur
	// itself seeds the materialization cache.
	var overlay map[int]nodeRow
	if len(dirty) > 0 {
		overlay = make(map[int]nodeRow, len(dirty))
		for _, u := range dirty {
			dst, w := cur.Out(u)
			overlay[u] = nodeRow{dst: dst, w: w}
		}
	}
	// Full rebuilds of the restored index retain the Schur-assembly cache
	// like a freshly constructed Dynamic's do. The supplied Precomputed
	// itself usually lacks the cache (it is derived state and never
	// serialized), so the first auto rebuild falls back to full — recorded
	// as no_cache — and repopulates it.
	return &Dynamic{n: base.N(), base: base, curCache: cur, overlay: overlay, p: p, opts: opts, dirty: dirty,
		lastFullNNZ: p.NNZ()}, nil
}

// encodeGraph writes a graph exactly: node count, then the destination and
// weight slices of each node's out-edges. Weights round-trip bit-for-bit.
func encodeGraph(e *encoder, g *graph.Graph) {
	n := g.N()
	e.i64(int64(n))
	for u := 0; u < n; u++ {
		dst, w := g.Out(u)
		e.ints(dst)
		e.floats(w)
	}
}

// decodeGraph is the inverse of encodeGraph. Every edge is validated
// before it reaches the builder (which panics on invalid input), so a
// corrupt stream fails with an error, never a panic.
func decodeGraph(d *decoder) *graph.Graph {
	n := int(d.i64())
	if d.err != nil {
		return nil
	}
	if n < 0 || n > maxSliceLen {
		d.err = fmt.Errorf("corrupt graph node count %d", n)
		return nil
	}
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		dst := d.ints()
		w := d.floats()
		if d.err != nil {
			return nil
		}
		if len(dst) != len(w) {
			d.err = fmt.Errorf("corrupt graph row %d: %d destinations, %d weights", u, len(dst), len(w))
			return nil
		}
		for k := range dst {
			if dst[k] < 0 || dst[k] >= n {
				d.err = fmt.Errorf("corrupt graph edge %d->%d out of range n=%d", u, dst[k], n)
				return nil
			}
			if w[k] < 0 || math.IsNaN(w[k]) || math.IsInf(w[k], 0) {
				d.err = fmt.Errorf("corrupt graph edge %d->%d weight %g", u, dst[k], w[k])
				return nil
			}
			b.AddEdge(u, dst[k], w[k])
		}
	}
	return b.Build()
}
