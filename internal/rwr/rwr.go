// Package rwr implements the RWR baseline methods the paper compares BEAR
// against (Section 2.2): the iterative power method, RPPR/BRPPR, direct
// inversion, LU decomposition, QR decomposition, and B_LIN/NB_LIN — all
// behind a common Method/Solver interface so the experiment harness can
// drive them uniformly.
package rwr

import (
	"errors"
	"fmt"
)

// ErrOutOfMemory reports that a method's precomputed matrices would exceed
// the configured memory budget. The harness records this as the "bar
// omitted" (OOM) outcome of the paper's figures.
var ErrOutOfMemory = errors.New("rwr: precomputed data exceeds memory budget")

// Options configures preprocessing for every method; each method reads the
// subset of fields that applies to it.
type Options struct {
	// C is the restart probability in (0, 1). Zero selects 0.05, the
	// paper's setting.
	C float64
	// Eps is the convergence threshold of iterative methods. Zero selects
	// 1e-8, the paper's setting.
	Eps float64
	// MaxIters bounds iterative methods. Zero selects 10000.
	MaxIters int
	// DropTol is the drop tolerance ξ for B_LIN/NB_LIN precomputed
	// matrices.
	DropTol float64
	// EpsB is the node-expansion threshold ε_b of RPPR/BRPPR. Zero selects
	// 1e-4.
	EpsB float64
	// Partitions is #p for B_LIN. Zero selects 100.
	Partitions int
	// Rank is the low-rank t for B_LIN/NB_LIN. Zero selects 100.
	Rank int
	// MemBudget caps the bytes of precomputed data; methods whose output
	// would exceed it fail with ErrOutOfMemory. Zero means unlimited.
	MemBudget int64
}

func (o Options) withDefaults() Options {
	if o.C == 0 {
		o.C = 0.05
	}
	if o.Eps == 0 {
		o.Eps = 1e-8
	}
	if o.MaxIters == 0 {
		o.MaxIters = 10000
	}
	if o.EpsB == 0 {
		o.EpsB = 1e-4
	}
	if o.Partitions == 0 {
		o.Partitions = 100
	}
	if o.Rank == 0 {
		o.Rank = 100
	}
	return o
}

func (o Options) validate() error {
	if o.C <= 0 || o.C >= 1 {
		return fmt.Errorf("rwr: restart probability %g outside (0,1)", o.C)
	}
	if o.Eps < 0 || o.DropTol < 0 || o.EpsB < 0 {
		return fmt.Errorf("rwr: negative threshold")
	}
	return nil
}

// overBudget reports whether estimated bytes exceed the configured budget.
func overBudget(opts Options, bytes int64) bool {
	return opts.MemBudget > 0 && bytes > opts.MemBudget
}

// Solver answers RWR queries from precomputed data.
type Solver interface {
	// Query computes the relevance vector for a starting distribution q of
	// length n. A single-seed RWR query is q = e_seed.
	Query(q []float64) ([]float64, error)
	// NNZ reports the stored entries in the precomputed matrices.
	NNZ() int64
	// Bytes estimates the memory held by the precomputed matrices.
	Bytes() int64
}

// SeedQuery is a convenience wrapper building the canonical single-seed
// starting vector.
func SeedQuery(s Solver, n, seed int) ([]float64, error) {
	if seed < 0 || seed >= n {
		return nil, fmt.Errorf("rwr: seed %d out of range [0,%d)", seed, n)
	}
	q := make([]float64, n)
	q[seed] = 1
	return s.Query(q)
}
