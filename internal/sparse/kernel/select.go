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
}

// ParseConfig maps an -kernel / Options.Kernel spec to a Config. Accepted
// specs: "" or "auto" (the heuristic), "csr", "sell".
func ParseConfig(spec string) (Config, error) {
	switch spec {
	case "", "auto":
		return Config{}, nil
	case "csr":
		return Config{Layout: ForceCSR}, nil
	case "sell":
		return Config{Layout: ForceSELL}, nil
	default:
		return Config{}, fmt.Errorf("kernel: unknown layout %q (want auto, csr or sell)", spec)
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
	k := pick(m, cfg.Layout)
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
