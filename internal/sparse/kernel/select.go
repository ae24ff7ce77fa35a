package kernel

import "bear/internal/sparse"

// Heuristic thresholds for layout selection, fitted to the measured layout
// sweep (BENCH_kernels.json): SELL beats CSR by ~1.5× exactly when rows
// are tiny — mean ≤ 2 stored entries per row, the near-diagonal spoke
// factors of periphery-heavy graphs, where CSR's per-row loop overhead
// dominates and SELL amortizes it across 8 rows — and loses (0.6–0.95×)
// everywhere else.
const (
	autoMinRows        = 256
	autoSELLMaxMeanRow = 2.0
)

// New builds the kernel view of m, picking its layout per matrix — SELL-C-σ
// for matrices of at least 256 rows with at most 2 stored entries per row,
// CSR otherwise — and records the choice in the kernel selection counters.
// Every layout gives bit-identical answers; only speed differs.
func New(m *sparse.CSR) Matrix {
	if m.R >= autoMinRows && float64(m.NNZ()) <= autoSELLMaxMeanRow*float64(m.R) {
		if s := NewSELL(m); s != nil {
			sellStats.selected.Add(1)
			return s
		}
	}
	csrStats.selected.Add(1)
	return NewCSR(m)
}
