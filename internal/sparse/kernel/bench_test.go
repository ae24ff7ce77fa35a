package kernel_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"bear/internal/core"
	"bear/internal/graph/gen"
	"bear/internal/sparse"
	"bear/internal/sparse/kernel"
)

var (
	factorOnce sync.Once
	factors    map[string]*sparse.CSR
)

// benchFactors preprocesses the caveman-with-hubs serving benchmark graph
// (the BENCH_query.json fixture) and exposes the operand matrices of
// Algorithm 2: the block-diagonal spoke factors L1⁻¹/U1⁻¹ (the H11
// subsystem every query solves twice), the cross block H12, and the Schur
// factor L2⁻¹.
func benchFactors(b *testing.B) map[string]*sparse.CSR {
	factorOnce.Do(func() {
		g := gen.CavemanHubs(gen.CavemanHubsConfig{
			Communities: 150, Size: 30, PIntra: 0.25, Hubs: 12, HubDeg: 60, Seed: 42,
		})
		p, err := core.Preprocess(g, core.Options{})
		if err != nil {
			panic(err)
		}
		factors = map[string]*sparse.CSR{
			"l1inv": p.L1Inv,
			"u1inv": p.U1Inv,
			"h12":   p.H12,
			"l2inv": p.L2Inv,
		}
	})
	return factors
}

func benchLayouts(m *sparse.CSR) []struct {
	name string
	k    kernel.Matrix
} {
	out := []struct {
		name string
		k    kernel.Matrix
	}{
		{"csr", kernel.NewCSR(m)},
	}
	if s := kernel.NewSELL(m); s != nil {
		out = append(out, struct {
			name string
			k    kernel.Matrix
		}{"sell", s})
	}
	return out
}

// BenchmarkKernelSpMV sweeps format × block shape on the real
// preprocessed factors; results feed BENCH_kernels.json and the CI
// regression gate (bearbench -exp kernels).
func BenchmarkKernelSpMV(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, mname := range []string{"l1inv", "u1inv", "h12", "l2inv"} {
		m := benchFactors(b)[mname]
		x := make([]float64, m.C)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, m.R)
		for _, lc := range benchLayouts(m) {
			b.Run(fmt.Sprintf("%s/%s", mname, lc.name), func(b *testing.B) {
				b.ReportMetric(float64(m.NNZ()), "nnz")
				for i := 0; i < b.N; i++ {
					lc.k.Mul(y, x, 1)
				}
			})
		}
	}
}

// BenchmarkKernelSpMM covers the batched multi-RHS path on the spoke
// factor (the QueryBatch inner kernel).
func BenchmarkKernelSpMM(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	m := benchFactors(b)["l1inv"]
	const nb = 8
	x := make([]float64, m.C*nb)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, m.R*nb)
	for _, lc := range benchLayouts(m) {
		b.Run(lc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lc.k.Mul(y, x, nb)
			}
		})
	}
}
