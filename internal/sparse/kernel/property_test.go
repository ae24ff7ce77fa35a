package kernel_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bear/internal/sparse"
	"bear/internal/sparse/kernel"
)

func randCSR(rng *rand.Rand, r, c int, density float64) *sparse.CSR {
	var coords []sparse.Coord
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				coords = append(coords, sparse.Coord{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	return sparse.NewCSR(r, c, coords)
}

// blockDiagCSR emits a block-diagonal matrix with dense-ish blocks — the
// shape of BEAR's spoke factors L1⁻¹/U1⁻¹.
func blockDiagCSR(rng *rand.Rand, blocks []int, fill float64) *sparse.CSR {
	var coords []sparse.Coord
	off := 0
	for _, b := range blocks {
		for i := 0; i < b; i++ {
			for j := 0; j < b; j++ {
				if i == j || rng.Float64() < fill {
					coords = append(coords, sparse.Coord{Row: off + i, Col: off + j, Val: rng.NormFloat64()})
				}
			}
		}
		off += b
	}
	return sparse.NewCSR(off, off, coords)
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// refProduct is the reference every layout must reproduce bit for bit:
// for each row i and right-hand side t, y[i*nb+t] accumulates
// val·x[col*nb+t] over the row's stored entries in ascending column
// order, starting from zero and skipping columns outside [clo, chi).
func refProduct(m *sparse.CSR, x []float64, nb, clo, chi int) []float64 {
	y := make([]float64, m.R*nb)
	for i := 0; i < m.R; i++ {
		for t := 0; t < nb; t++ {
			var s float64
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				if c := m.ColIdx[p]; c >= clo && c < chi {
					s += m.Val[p] * x[c*nb+t]
				}
			}
			y[i*nb+t] = s
		}
	}
	return y
}

type layoutCase struct {
	name  string
	build func(m *sparse.CSR) kernel.Matrix
}

// layoutCases enumerates every layout the property tests cover: csr and
// sell.
func layoutCases(t testing.TB) []layoutCase {
	return []layoutCase{
		{"csr", func(m *sparse.CSR) kernel.Matrix { return kernel.NewCSR(m) }},
		{"sell", func(m *sparse.CSR) kernel.Matrix {
			s := kernel.NewSELL(m)
			if s == nil {
				t.Fatal("NewSELL returned nil for an int32-narrowable matrix")
			}
			return s
		}},
	}
}

// checkBits fails unless got and want hold the same float64 bit patterns.
func checkBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: y[%d] = %v, reference %v (must be bit-identical)", what, i, got[i], want[i])
		}
	}
}

// filled returns a length-n vector of sentinels, so a test can see which
// entries a ranged product wrote.
func filled(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Inf(1)
	}
	return v
}

// windowed returns a copy of the nb-wide node-contiguous block x with
// every row outside [lo, hi) set to zero.
func windowed(x []float64, nb, lo, hi int) []float64 {
	w := make([]float64, len(x))
	copy(w[lo*nb:hi*nb], x[lo*nb:hi*nb])
	return w
}

func fixtures(rng *rand.Rand) map[string]*sparse.CSR {
	return map[string]*sparse.CSR{
		"random-sparse":  randCSR(rng, 97, 97, 0.06),
		"random-dense":   randCSR(rng, 40, 40, 0.45),
		"rect-wide":      randCSR(rng, 31, 120, 0.1),
		"rect-tall":      randCSR(rng, 120, 31, 0.1),
		"block-diagonal": blockDiagCSR(rng, []int{17, 9, 30, 1, 24}, 0.7),
		"empty-rows":     sparse.NewCSR(50, 50, []sparse.Coord{{Row: 3, Col: 7, Val: 2}, {Row: 48, Col: 0, Val: -1}}),
		"empty":          sparse.NewCSR(8, 8, nil),
	}
}

// TestKernelLayoutsMatchBaseline is the layout property test: random
// matrices × every layout × every product, asserting each is
// bit-identical to refProduct, that a row-windowed product leaves rows
// outside its window untouched, and that a repeated call reproduces the
// first. The widths nb = 1–9 and 17 cover the single-vector loop and
// every mix of the 8-, 4- and 2-wide register tiles and the scalar tail.
// A column-windowed product over an x that is zero outside its window
// must equal the full product bit for bit: the Schur stage's windowed
// products rely on it.
func TestKernelLayoutsMatchBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for mname, m := range fixtures(rng) {
		rowWins := [][2]int{{0, m.R}, {m.R / 3, 2 * m.R / 3}, {m.R / 2, m.R / 2}}
		colWins := [][2]int{{0, m.C}, {m.C / 4, 3 * m.C / 4}, {0, m.C / 2}, {m.C / 2, m.C}, {m.C / 3, m.C / 3}}
		for _, lc := range layoutCases(t) {
			k := lc.build(m)
			for nb := 1; nb <= 17; nb++ {
				if nb > 9 && nb < 17 {
					continue
				}
				tag := fmt.Sprintf("%s/%s/nb=%d", mname, lc.name, nb)
				x := randVec(rng, m.C*nb)
				want := refProduct(m, x, nb, 0, m.C)
				y := filled(m.R * nb)
				k.Mul(y, x, nb)
				checkBits(t, tag+"/Mul", y, want)
				y2 := filled(m.R * nb)
				k.Mul(y2, x, nb)
				checkBits(t, tag+"/Mul-repeat", y2, y)
				for _, w := range rowWins {
					lo, hi := w[0], w[1]
					got := filled(m.R * nb)
					k.MulRows(got, x, nb, lo, hi)
					wantRows := filled(m.R * nb)
					copy(wantRows[lo*nb:hi*nb], want[lo*nb:hi*nb])
					checkBits(t, fmt.Sprintf("%s/MulRows[%d:%d]", tag, lo, hi), got, wantRows)
				}
				for _, w := range colWins {
					lo, hi := w[0], w[1]
					got := filled(m.R * nb)
					k.MulCols(got, x, nb, lo, hi)
					checkBits(t, fmt.Sprintf("%s/MulCols[%d:%d]", tag, lo, hi), got, refProduct(m, x, nb, lo, hi))

					xw := windowed(x, nb, lo, hi)
					full := filled(m.R * nb)
					k.Mul(full, xw, nb)
					k.MulCols(got, xw, nb, lo, hi)
					checkBits(t, fmt.Sprintf("%s/MulCols[%d:%d] vs Mul of windowed x", tag, lo, hi), got, full)
				}
			}
		}
	}
}

// The argument contract of these products (shape, window and nb panics
// on every layout) is pinned by the panic tests in package sparse.

// TestStatsCountOnePerCall: one call of any product on any layout raises
// exactly one kernel.Stats counter, by one — its own layout's spmv for
// nb = 1 or spmm for nb > 1. SELL runs the csr loops without going
// through CSR's counted methods, so bear_kernel_*_total reports calls,
// not the loops behind them.
func TestStatsCountOnePerCall(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := randCSR(rng, 64, 64, 0.1)
	snapshot := func() map[string][3]uint64 {
		out := map[string][3]uint64{}
		for _, l := range kernel.Layouts() {
			sel, spmv, spmm := kernel.Stats(l)
			out[l] = [3]uint64{sel, spmv, spmm}
		}
		return out
	}
	for _, lc := range layoutCases(t) {
		k := lc.build(m)
		for nb, counter := range map[int]int{1: 1, 2: 2} { // counter 1 = spmv, 2 = spmm
			x, y := randVec(rng, 64*nb), make([]float64, 64*nb)
			for _, call := range []struct {
				name string
				fn   func()
			}{
				{"Mul", func() { k.Mul(y, x, nb) }},
				{"MulRows", func() { k.MulRows(y, x, nb, 8, 40) }},
				{"MulCols", func() { k.MulCols(y, x, nb, 8, 40) }},
			} {
				before := snapshot()
				call.fn()
				after := snapshot()
				for _, l := range kernel.Layouts() {
					for c := 0; c < 3; c++ {
						want := before[l][c]
						if l == k.Layout() && c == counter {
							want++
						}
						if after[l][c] != want {
							t.Errorf("%s/%s(nb=%d): Stats(%q)[%d] went %d -> %d, want %d",
								lc.name, call.name, nb, l, c, before[l][c], after[l][c], want)
						}
					}
				}
			}
		}
	}
}

// TestAutoSelection pins the heuristic: near-diagonal matrices (mean ≤ 2
// entries per row, where SELL measures ~1.5× over CSR) pick SELL, denser
// ones stay on CSR, and small matrices never pay layout construction.
func TestAutoSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Near-diagonal: 1–2 entries per row, the spoke-factor shape of
	// periphery-heavy graphs.
	nearDiag := blockDiagCSR(rng, func() []int {
		blocks := make([]int, 300)
		for i := range blocks {
			blocks[i] = 1 + i%2
		}
		return blocks
	}(), 1)
	if got := kernel.New(nearDiag).Layout(); got != "sell" {
		t.Fatalf("near-diagonal auto layout = %s, want sell", got)
	}
	// Dense blocks: ~40 entries per row — CSR stays.
	spoke := blockDiagCSR(rng, []int{40, 40, 40}, 1)
	if got := kernel.New(spoke).Layout(); got != "csr" {
		t.Fatalf("dense-block auto layout = %s, want csr", got)
	}
	tiny := sparse.Identity(40)
	if got := kernel.New(tiny).Layout(); got != "csr" {
		t.Fatalf("tiny auto layout = %s, want csr", got)
	}
}
