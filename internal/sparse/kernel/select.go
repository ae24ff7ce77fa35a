package kernel

import (
	"fmt"

	"bear/internal/sparse"
)

// Layout selects a storage layout, or Auto for the per-matrix heuristic.
type Layout int

const (
	Auto Layout = iota
	ForceCSR
	ForceSELL
)

// Config controls layout selection for New.
type Config struct {
	// Layout forces a specific storage layout; Auto applies the heuristic.
	Layout Layout
	// Workers selects the parallel row-partitioner instead of Layout when
	// > 1 (or < 0 for GOMAXPROCS lanes) and the matrix is large enough to
	// amortize the pool handoff. 0 and 1 stay sequential.
	Workers int
}

// ParseConfig maps an -kernel / Options.Kernel spec to a Config. Accepted
// specs: "" or "auto" (heuristic, sequential), "csr", "sell", "parallel"
// (GOMAXPROCS lanes on large matrices, the heuristic on the rest).
func ParseConfig(spec string) (Config, error) {
	switch spec {
	case "", "auto":
		return Config{}, nil
	case "csr":
		return Config{Layout: ForceCSR}, nil
	case "sell":
		return Config{Layout: ForceSELL}, nil
	case "parallel":
		return Config{Workers: -1}, nil
	default:
		return Config{}, fmt.Errorf("kernel: unknown layout %q (want auto, csr, sell or parallel)", spec)
	}
}

// Heuristic thresholds for Auto, fitted to the measured layout sweep
// (BENCH_kernels.json): SELL beats CSR by ~1.5× exactly when rows are
// tiny — mean ≤ 2 stored entries per row, the near-diagonal spoke
// factors of periphery-heavy graphs, where CSR's per-row loop overhead
// dominates and SELL amortizes it across 8 rows — and loses (0.6–0.95×)
// everywhere else.
const (
	autoMinRows        = 256
	autoSELLMaxMeanRow = 2.0
)

// New builds the kernel view of m under cfg and records the choice in
// the kernel selection counters.
func New(m *sparse.CSR, cfg Config) Matrix {
	var k Matrix
	if w := cfg.Workers; (w > 1 || w < 0) && m.NNZ() >= minParallelNNZ {
		k = NewParallel(m, w)
	} else {
		k = pick(m, cfg.Layout)
	}
	statSelected(k.Layout())
	return k
}

func pick(m *sparse.CSR, layout Layout) Matrix {
	switch layout {
	case ForceSELL:
		if s := NewSELL(m); s != nil {
			return s
		}
	case Auto:
		if m.R >= autoMinRows && float64(m.NNZ()) <= autoSELLMaxMeanRow*float64(m.R) {
			if s := NewSELL(m); s != nil {
				return s
			}
		}
	}
	return NewCSR(m)
}
