package sparse_test

import (
	"testing"

	"bear/internal/sparse"
	"bear/internal/sparse/kernel"
)

// The products over a *sparse.CSR run in package kernel. The tests below
// lock in their argument contract: mismatched shapes, row or column
// windows outside the matrix or reversed, and non-positive RHS counts all
// panic on every layout. Most shape cases pass an operand one entry too
// long, so only the explicit check can catch them.

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

// TestMulMultiToPanics: the products over nb ≠ 1 right-hand sides reject
// nb ≤ 0, mismatched shapes and out-of-range row or column windows.
func TestMulMultiToPanics(t *testing.T) {
	xm, ym := make([]float64, 6), make([]float64, 6)
	for _, k := range contractLayouts(sparse.Identity(3)) {
		expectPanics(t, k, map[string]func(){
			"Mul/nb-zero":           func() { k.Mul(nil, nil, 0) },
			"Mul/shape":             func() { k.Mul(ym, append(xm, 0), 2) },
			"MulRows/rows-past-end": func() { k.MulRows(ym, xm, 2, 1, 4) },
			"MulRows/nb-zero":       func() { k.MulRows(nil, nil, 0, 0, 1) },
			"MulCols/cols-before":   func() { k.MulCols(ym, xm, 2, -1, 2) },
			"MulCols/nb-zero":       func() { k.MulCols(nil, nil, 0, 0, 2) },
		})
	}
}

// TestMulVecRangePanics: the single-vector products reject mismatched
// shapes and row or column windows outside the matrix or reversed. The
// full product checks its shape on every layout, SELL's native slice
// loop included.
func TestMulVecRangePanics(t *testing.T) {
	x, y, long := make([]float64, 3), make([]float64, 3), make([]float64, 4)
	for _, k := range contractLayouts(sparse.Identity(3)) {
		expectPanics(t, k, map[string]func(){
			"Mul/shape-x":           func() { k.Mul(y, long, 1) },
			"Mul/shape-y":           func() { k.Mul(long, x, 1) },
			"MulRows/rows-past-end": func() { k.MulRows(y, x, 1, 2, 4) },
			"MulRows/rows-reversed": func() { k.MulRows(y, x, 1, 2, 1) },
			"MulRows/shape":         func() { k.MulRows(y, long, 1, 0, 3) },
			"MulCols/cols-before":   func() { k.MulCols(y, x, 1, -1, 2) },
			"MulCols/shape":         func() { k.MulCols(y, long, 1, 0, 3) },
		})
	}
}
