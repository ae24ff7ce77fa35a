// Benchmarks regenerating the paper's tables and figures as testing.B
// targets, one per artifact (see DESIGN.md's per-experiment index). These
// run at a reduced scale so `go test -bench=.` completes in minutes; the
// cmd/bearbench tool runs the same experiments at full scale with complete
// reporting.
package bear_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"bear/internal/bench"
	"bear/internal/core"
	"bear/internal/graph"
	"bear/internal/graph/gen"
	"bear/internal/rwr"
)

const benchScale = 0.1

func benchDataset(b *testing.B, name string) *graph.Graph {
	b.Helper()
	d, err := bench.DatasetByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return d.Make(benchScale)
}

// BenchmarkTable4Stats regenerates Table 4: BEAR preprocessing statistics
// per dataset, reported as benchmark metrics.
func BenchmarkTable4Stats(b *testing.B) {
	for _, d := range bench.Datasets() {
		g := d.Make(benchScale)
		b.Run(d.Name, func(b *testing.B) {
			var st core.Stats
			for i := 0; i < b.N; i++ {
				p, err := core.Preprocess(g, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				st = p.Stats
			}
			b.ReportMetric(float64(st.N2), "n2")
			b.ReportMetric(float64(st.SumSqBlocks), "sum-n1i^2")
			b.ReportMetric(float64(st.NNZL1U1+st.NNZL2U2+st.NNZH12H21), "nnz")
		})
	}
}

// BenchmarkFig1aPreprocess regenerates Fig 1(a): preprocessing time of the
// exact methods.
func BenchmarkFig1aPreprocess(b *testing.B) {
	for _, name := range []string{"routing", "web"} {
		g := benchDataset(b, name)
		for _, m := range bench.ExactMethods() {
			if !bench.HasPreprocessing(m) {
				continue
			}
			b.Run(fmt.Sprintf("%s/%s", name, m.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := m.Preprocess(g, rwr.Options{C: 0.05}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig1bQuery regenerates Fig 1(b): query time of the exact
// methods (preprocessing excluded from the timer).
func BenchmarkFig1bQuery(b *testing.B) {
	for _, name := range []string{"routing", "web"} {
		g := benchDataset(b, name)
		q := make([]float64, g.N())
		q[1] = 1
		for _, m := range bench.ExactMethods() {
			s, err := m.Preprocess(g, rwr.Options{C: 0.05})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%s", name, m.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := s.Query(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig2Nonzeros regenerates Fig 2: nonzeros of each method's
// precomputed matrices on the routing analogue.
func BenchmarkFig2Nonzeros(b *testing.B) {
	g := benchDataset(b, "routing")
	methods := []bench.Method{
		bench.BearMethod{Label: "bear-exact"},
		rwr.LUDecomp{}, rwr.QRDecomp{}, rwr.Inversion{}, rwr.BLin{}, rwr.NBLin{},
	}
	for _, m := range methods {
		b.Run(m.Name(), func(b *testing.B) {
			var nnz int64
			for i := 0; i < b.N; i++ {
				s, err := m.Preprocess(g, rwr.Options{C: 0.05})
				if err != nil {
					b.Fatal(err)
				}
				nnz = s.NNZ()
			}
			b.ReportMetric(float64(nnz), "nnz")
		})
	}
}

// BenchmarkFig6DropTolerance regenerates Fig 6: BEAR-Approx query time and
// size across the ξ ladder.
func BenchmarkFig6DropTolerance(b *testing.B) {
	g := benchDataset(b, "routing")
	n := float64(g.N())
	q := make([]float64, g.N())
	q[1] = 1
	for _, lvl := range []struct {
		label string
		xi    float64
	}{
		{"xi=0", 0},
		{"xi=n^-1", 1 / n},
		{"xi=n^-1|2", 1 / math.Sqrt(n)},
		{"xi=n^-1|4", 1 / math.Pow(n, 0.25)},
	} {
		p, err := core.Preprocess(g, core.Options{DropTol: lvl.xi})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(lvl.label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.QueryDist(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(p.NNZ()), "nnz")
		})
	}
}

// BenchmarkFig7Structure regenerates Fig 7: BEAR cost across the R-MAT
// p_ul sweep.
func BenchmarkFig7Structure(b *testing.B) {
	for _, d := range bench.RMATFamily(benchScale) {
		g := d.Make(benchScale)
		b.Run(d.Name, func(b *testing.B) {
			var p *core.Precomputed
			var err error
			for i := 0; i < b.N; i++ {
				p, err = core.Preprocess(g, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(p.Stats.N2), "n2")
			b.ReportMetric(float64(p.Bytes()), "bytes")
		})
	}
}

// BenchmarkFig8Tradeoff regenerates Figs 8/13: query time of the
// approximate methods at a representative operating point.
func BenchmarkFig8Tradeoff(b *testing.B) {
	g := benchDataset(b, "routing")
	n := float64(g.N())
	q := make([]float64, g.N())
	q[1] = 1
	configs := []struct {
		m    bench.Method
		opts rwr.Options
	}{
		{bench.BearMethod{Label: "bear-approx"}, rwr.Options{C: 0.05, DropTol: 1 / math.Sqrt(n)}},
		{rwr.BLin{}, rwr.Options{C: 0.05, DropTol: 1 / math.Sqrt(n)}},
		{rwr.NBLin{}, rwr.Options{C: 0.05, DropTol: 1 / math.Sqrt(n)}},
		{rwr.RPPR{}, rwr.Options{C: 0.05, EpsB: 1e-3}},
		{rwr.BRPPR{}, rwr.Options{C: 0.05, EpsB: 1e-3}},
	}
	for _, cfg := range configs {
		s, err := cfg.m.Preprocess(g, cfg.opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Query(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.Bytes()), "bytes")
		})
	}
}

// BenchmarkFig10PPRQuery regenerates Fig 10: multi-seed PPR query time for
// BEAR-Exact vs the iterative method.
func BenchmarkFig10PPRQuery(b *testing.B) {
	g := benchDataset(b, "web")
	for _, m := range []bench.Method{bench.BearMethod{Label: "bear-exact"}, rwr.Iterative{}} {
		s, err := m.Preprocess(g, rwr.Options{C: 0.05})
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []int{1, 10, 100} {
			seeds := make([]int, k)
			for i := range seeds {
				seeds[i] = (i * 37) % g.N()
			}
			q := bench.MultiSeedQuery(g.N(), seeds)
			b.Run(fmt.Sprintf("%s/seeds=%d", m.Name(), k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := s.Query(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig11Seeds regenerates Fig 11: BEAR-Exact query time vs #seeds
// across datasets.
func BenchmarkFig11Seeds(b *testing.B) {
	for _, name := range []string{"routing", "email"} {
		g := benchDataset(b, name)
		p, err := core.Preprocess(g, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []int{1, 10, 100} {
			seeds := make([]int, k)
			for i := range seeds {
				seeds[i] = (i * 13) % g.N()
			}
			q := bench.MultiSeedQuery(g.N(), seeds)
			b.Run(fmt.Sprintf("%s/seeds=%d", name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := p.QueryDist(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig12ApproxPreprocess regenerates Fig 12: preprocessing time of
// the approximate methods.
func BenchmarkFig12ApproxPreprocess(b *testing.B) {
	g := benchDataset(b, "coauthor")
	xi := 1 / float64(g.N())
	for _, m := range []bench.Method{bench.BearMethod{Label: "bear-approx"}, rwr.BLin{}, rwr.NBLin{}} {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.Preprocess(g, rwr.Options{C: 0.05, DropTol: xi}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSlashBurn measures the reordering substrate on its own — the
// T(m + n log n) term of Theorem 2.
func BenchmarkSlashBurn(b *testing.B) {
	g := benchDataset(b, "web")
	b.Run("preprocess-component", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Preprocess(g, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDynamicQuery measures the Woodbury-corrected query cost as the
// pending update count k grows (each query is k+1 block-elimination
// solves after the one-time cache build).
func BenchmarkDynamicQuery(b *testing.B) {
	g := benchDataset(b, "routing")
	for _, k := range []int{0, 1, 8, 32} {
		d, err := core.NewDynamic(g, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if err := d.AddEdge(i*3, (i*7+1)%g.N(), 1); err != nil {
				b.Fatal(err)
			}
		}
		// Warm the Woodbury cache outside the timer.
		if _, err := d.Query(0); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("pending=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := d.Query(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryBatch measures batched multi-seed throughput at different
// worker counts.
func BenchmarkQueryBatch(b *testing.B) {
	// The caveman-with-hubs serving graph, not the scaled-down paper
	// dataset: at bench scale the web graph's factors are a few hundred
	// nonzeros, too small to exercise the blocked kernels.
	g := throughputGraph()
	p, err := core.Preprocess(g, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	seeds := make([]int, 64)
	for i := range seeds {
		seeds[i] = (i * 31) % g.N()
	}
	// The baseline the blocked multi-RHS path must beat: one full solve
	// per seed.
	b.Run("perseed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range seeds {
				if _, err := p.Query(s); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.N*len(seeds))/b.Elapsed().Seconds(), "seeds/s")
	})
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.QueryBatch(seeds, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*len(seeds))/b.Elapsed().Seconds(), "seeds/s")
		})
	}
}

// throughputGraph is the caveman-with-hubs serving benchmark graph used by
// BenchmarkQueryThroughput (and recorded in BENCH_query.json): strong
// community structure with a global hub backbone, the regime BEAR's
// block-diagonal fast path is designed for.
func throughputGraph() *graph.Graph {
	return gen.CavemanHubs(gen.CavemanHubsConfig{
		Communities: 150, Size: 30, PIntra: 0.25, Hubs: 12, HubDeg: 60, Seed: 42,
	})
}

// BenchmarkQueryThroughput measures the serving hot path: single-seed RWR
// queries per second on the caveman-with-hubs graph. Run with -benchmem;
// before/after numbers live in BENCH_query.json.
func BenchmarkQueryThroughput(b *testing.B) {
	g := throughputGraph()
	p, err := core.Preprocess(g, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("single-seed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Query(i % g.N()); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
	b.Run("single-seed-reused", func(b *testing.B) {
		// The steady-state serving pattern: caller-owned result vector
		// plus a pooled workspace. This is the configuration that must
		// show zero allocations per query.
		ctx := context.Background()
		dst := make([]float64, g.N())
		ws := p.AcquireWorkspace()
		defer p.ReleaseWorkspace(ws)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.QueryToCtx(ctx, dst, i%g.N(), ws); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
	b.Run("single-seed+top10", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scores, err := p.Query(i % g.N())
			if err != nil {
				b.Fatal(err)
			}
			core.TopK(scores, 10)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
	b.Run("batch64/workers=4", func(b *testing.B) {
		seeds := make([]int, 64)
		for i := range seeds {
			seeds[i] = (i * 31) % g.N()
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.QueryBatch(seeds, 4); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*len(seeds))/b.Elapsed().Seconds(), "queries/s")
	})
}

// BenchmarkPreprocess runs Algorithm 1 end to end on the trust graph.
func BenchmarkPreprocess(b *testing.B) {
	g := benchDataset(b, "trust")
	for i := 0; i < b.N; i++ {
		if _, err := core.Preprocess(g, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
