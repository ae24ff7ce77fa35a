package sparse

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchMatrix builds a deterministic n×n matrix with ~avgRow entries per
// row for kernel benchmarks.
func benchMatrix(n, avgRow int) *CSR {
	rng := rand.New(rand.NewSource(1))
	coords := make([]Coord, 0, n*avgRow)
	for i := 0; i < n; i++ {
		for k := 0; k < avgRow; k++ {
			coords = append(coords, Coord{Row: i, Col: rng.Intn(n), Val: rng.NormFloat64()})
		}
	}
	return NewCSR(n, n, coords)
}

func BenchmarkMulVec(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		m := benchMatrix(n, 8)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportMetric(float64(m.NNZ()), "nnz")
			for i := 0; i < b.N; i++ {
				m.MulVecTo(y, x)
			}
		})
	}
}

func BenchmarkSpGEMM(b *testing.B) {
	for _, n := range []int{500, 2000} {
		x := benchMatrix(n, 6)
		y := benchMatrix(n, 6)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Mul(x, y)
			}
		})
	}
}

func BenchmarkSparseLU(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{500, 1500} {
		a := randomDiagDominant(rng, n, 4.0/float64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := LU(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveLower / BenchmarkSolveUpper guard the dense-RHS triangular
// substitution kernels (the per-query inner loops of LU-based solves).
func BenchmarkSolveLower(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1000, 5000} {
		a := randomDiagDominant(rng, n, 6.0/float64(n))
		f, err := LU(a)
		if err != nil {
			b.Fatal(err)
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportMetric(float64(f.L.NNZ()), "nnz")
			for i := 0; i < b.N; i++ {
				copy(x, rhs)
				if err := SolveLower(f.L, x, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSolveUpper(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1000, 5000} {
		a := randomDiagDominant(rng, n, 6.0/float64(n))
		f, err := LU(a)
		if err != nil {
			b.Fatal(err)
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportMetric(float64(f.U.NNZ()), "nnz")
			for i := 0; i < b.N; i++ {
				copy(x, rhs)
				if err := SolveUpper(f.U, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTriangularInverse(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{500, 1000} {
		a := randomDiagDominant(rng, n, 4.0/float64(n))
		f, err := LU(a)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := InverseLower(f.L, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTranspose(b *testing.B) {
	m := benchMatrix(20000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transpose()
	}
}

func BenchmarkPermute(b *testing.B) {
	m := benchMatrix(10000, 8)
	p := rand.New(rand.NewSource(4)).Perm(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Permute(p, p)
	}
}
