package sparse_test

import (
	"testing"

	"bear/internal/sparse"
	"bear/internal/sparse/kernel"
)

// The ranged, column-windowed, multi-RHS and residual products over a
// *sparse.CSR run in package kernel. The tests below lock in their
// argument contract: mismatched shapes, row or column windows outside the
// matrix or reversed, and non-positive RHS counts all panic on every
// layout. The shape cases pass an x one entry too long, so only the
// explicit check can catch them.

// contractLayouts builds every layout over m.
func contractLayouts(m *sparse.CSR) []kernel.Matrix {
	return []kernel.Matrix{kernel.NewCSR(m), kernel.NewSELL(m)}
}

// expectPanics runs each case and fails unless it panics.
func expectPanics(t *testing.T, k kernel.Matrix, cases map[string]func()) {
	t.Helper()
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s/%s: expected panic", k.Layout(), name)
				}
			}()
			fn()
		}()
	}
}

// TestMulMultiToPanics: the multi-RHS products reject nb ≤ 0, mismatched
// shapes and out-of-range row or column windows.
func TestMulMultiToPanics(t *testing.T) {
	xm, ym := make([]float64, 6), make([]float64, 6)
	for _, k := range contractLayouts(sparse.Identity(3)) {
		expectPanics(t, k, map[string]func(){
			"SpMM/nb-zero":             func() { k.SpMM(nil, nil, 0) },
			"SpMM/shape":               func() { k.SpMM(ym, append(xm, 0), 2) },
			"SpMMRange/rows-past-end":  func() { k.SpMMRange(ym, xm, 2, 1, 4) },
			"SpMMRange/nb-zero":        func() { k.SpMMRange(nil, nil, 0, 0, 1) },
			"SpMMColRange/cols-before": func() { k.SpMMColRange(ym, xm, 2, -1, 2) },
			"SpMMColRange/nb-zero":     func() { k.SpMMColRange(nil, nil, 0, 0, 2) },
		})
	}
}

// TestMulVecRangePanics: the ranged SpMVs reject row or column windows
// outside the matrix or reversed, and mismatched shapes.
func TestMulVecRangePanics(t *testing.T) {
	x, y, long := make([]float64, 3), make([]float64, 3), make([]float64, 4)
	for _, k := range contractLayouts(sparse.Identity(3)) {
		expectPanics(t, k, map[string]func(){
			"SpMVRange/rows-past-end":  func() { k.SpMVRange(y, x, 2, 4) },
			"SpMVRange/rows-reversed":  func() { k.SpMVRange(y, x, 2, 1) },
			"SpMVRange/shape":          func() { k.SpMVRange(y, long, 0, 3) },
			"SpMVColRange/cols-before": func() { k.SpMVColRange(y, x, -1, 2) },
			"SpMVColRange/shape":       func() { k.SpMVColRange(y, long, 0, 3) },
		})
	}
}

// TestResidualToShapePanics: r = q - Hx rejects an x whose length is not
// H's column count.
func TestResidualToShapePanics(t *testing.T) {
	y, long := make([]float64, 3), make([]float64, 4)
	for _, k := range contractLayouts(sparse.Identity(3)) {
		expectPanics(t, k, map[string]func(){
			"Residual/shape": func() { k.Residual(y, y, long) },
		})
	}
}
