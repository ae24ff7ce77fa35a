// Package ordering defines the pluggable node-reordering engines behind
// BEAR's preprocessing phase (Algorithm 1, lines 2-3). An Ordering maps a
// graph to a hub/spoke split, a block partition of the spokes, and a
// per-block node order — the structure every downstream stage (block LU,
// Schur complement, the Lemma-1 single-seed fast path, incremental dirty-
// block rebuilds) is built on.
//
// Every engine must satisfy the same contract, spelled out on Result and
// enforced by Validate:
//
//   - the permutation is a bijection over the n nodes, with spokes in
//     positions [0, n-NumHubs) and hubs in the final NumHubs positions;
//   - Blocks partitions the spokes: sizes are positive and sum to
//     n - NumHubs, block i covering the positions after blocks 0..i-1;
//   - blocks are mutually disconnected once the hubs are removed — no
//     undirected edge joins spokes of two different blocks, which is what
//     makes the spoke-spoke block H₁₁ block diagonal (Lemma 1).
//
// Any permutation meeting the contract yields exact query results; engines
// differ only in fill-in of the inverted factors, Schur size, preprocess
// time, and query speed. Two engines exist: SlashBurn (the paper's
// choice) and minimum-degree elimination.
package ordering

import (
	"fmt"

	"bear/internal/graph"
)

// Default is the engine an empty ordering name selects: the paper's
// SlashBurn.
const Default = "slashburn"

// Params carries the tuning inputs an engine derives its own knobs from.
type Params struct {
	// K is the hub-selection budget, the SlashBurn wave size of the paper
	// (k = 0.001·n by default, clamped to at least 1). Engines without a
	// wave notion may reuse it as their scale knob. Must be positive.
	K int
}

// Result is an ordering's output: the node permutation plus the structure
// the permutation encodes. In the new order, spoke nodes occupy positions
// [0, n-NumHubs) grouped into the diagonal blocks of H₁₁, and hubs occupy
// the final NumHubs positions. BEAR later refines the hub order by degree
// in the Schur complement (Algorithm 1 line 7); the spoke order is final.
type Result struct {
	Perm    []int // Perm[old node id] = new position
	InvPerm []int // InvPerm[new position] = old node id
	NumHubs int   // n₂
	Blocks  []int // sizes of the diagonal blocks of H₁₁, in position order

	// Iterations is an engine-specific work counter: hub-removal waves for
	// slashburn, mass-eliminated (supernode-absorbed) nodes for mindeg.
	// Purely observational.
	Iterations int
}

// SumSqBlocks returns Σ n₁ᵢ², the quantity the paper's complexity analysis
// (and Table 4) is expressed in.
func (r *Result) SumSqBlocks() int64 {
	var s int64
	for _, b := range r.Blocks {
		s += int64(b) * int64(b)
	}
	return s
}

// Ordering is one reordering engine. Implementations must be stateless and
// safe for concurrent use; Run must be deterministic for a given graph and
// params (rebuild equivalence tests depend on it).
type Ordering interface {
	// Name returns the engine's name, a lowercase identifier stable across
	// releases (it is persisted in snapshots).
	Name() string
	// Run orders g. The graph is viewed as undirected (out ∪ in edges), as
	// H has a nonzero wherever either direction has an edge. The returned
	// Result must satisfy the package contract (see Validate).
	Run(g *graph.Graph, p Params) (*Result, error)
}

// Get resolves an engine by name; the empty string selects Default. An
// unknown name is an explicit error (callers surface it before any
// preprocessing work, and snapshot restore refuses the file).
func Get(name string) (Ordering, error) {
	switch Normalize(name) {
	case "slashburn":
		return SlashBurn{}, nil
	case "mindeg":
		return MinDegree{}, nil
	}
	return nil, fmt.Errorf("ordering: unknown ordering %q (have %v)", name, Names())
}

// Names lists every engine, sorted. The set is fixed at compile time, so
// it can back bounded metric label sets.
func Names() []string {
	return []string{"mindeg", "slashburn"}
}

// Normalize maps the empty name to Default and leaves every other name
// unchanged; it does not check that the engine exists.
func Normalize(name string) string {
	if name == "" {
		return Default
	}
	return name
}

// CheckStructure verifies the O(n) part of the contract — permutation
// bijection, hub/spoke split, block sizes — without touching edges. Core
// runs it after every ordering; the full edge-closure check lives in
// Validate (property tests).
func CheckStructure(n int, r *Result) error {
	if r == nil {
		return fmt.Errorf("ordering: nil result")
	}
	if r.NumHubs < 0 || r.NumHubs > n {
		return fmt.Errorf("ordering: hub count %d outside [0,%d]", r.NumHubs, n)
	}
	if len(r.Perm) != n || len(r.InvPerm) != n {
		return fmt.Errorf("ordering: permutation length %d/%d, want %d", len(r.Perm), len(r.InvPerm), n)
	}
	for node, pos := range r.Perm {
		if pos < 0 || pos >= n {
			return fmt.Errorf("ordering: node %d mapped to position %d outside [0,%d)", node, pos, n)
		}
		if r.InvPerm[pos] != node {
			return fmt.Errorf("ordering: InvPerm[%d]=%d does not invert Perm[%d]=%d",
				pos, r.InvPerm[pos], node, pos)
		}
	}
	n1 := n - r.NumHubs
	sum := 0
	for i, b := range r.Blocks {
		if b <= 0 {
			return fmt.Errorf("ordering: block %d has non-positive size %d", i, b)
		}
		sum += b
	}
	if sum != n1 {
		return fmt.Errorf("ordering: blocks sum to %d, want n1=%d", sum, n1)
	}
	return nil
}

// Validate verifies the full interface contract of a result against its
// graph: CheckStructure plus block closure — removing the hubs must leave
// no undirected edge between spokes of different blocks, the property that
// makes H₁₁ block diagonal. O(n + m); used by the shared property-test
// harness so future engines get contract coverage for free.
func Validate(g *graph.Graph, r *Result) error {
	n := g.N()
	if err := CheckStructure(n, r); err != nil {
		return err
	}
	n1 := n - r.NumHubs
	// blockOf[pos] = block index for spoke positions, -1 for hubs.
	blockOf := make([]int, n)
	pos := 0
	for i, b := range r.Blocks {
		for j := 0; j < b; j++ {
			blockOf[pos] = i
			pos++
		}
	}
	for ; pos < n; pos++ {
		blockOf[pos] = -1
	}
	for u := 0; u < n; u++ {
		pu := r.Perm[u]
		if pu >= n1 {
			continue
		}
		dst, _ := g.Out(u)
		for _, v := range dst {
			pv := r.Perm[v]
			if pv < n1 && blockOf[pv] != blockOf[pu] {
				return fmt.Errorf("ordering: edge %d->%d joins spokes of blocks %d and %d",
					u, v, blockOf[pu], blockOf[pv])
			}
		}
	}
	return nil
}
