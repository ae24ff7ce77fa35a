package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bear"
)

// benchServer registers one mid-sized graph and returns the handler plus
// the node count, bypassing TCP so the benchmark measures the serving
// path, not the loopback stack.
func benchServer(b *testing.B, cacheBytes int64) (http.Handler, int) {
	b.Helper()
	g := bear.GenerateCavemanHubs(bear.CavemanHubsConfig{
		Communities: 100, Size: 30, PIntra: 0.25, Hubs: 10, HubDeg: 50, Seed: 7,
	})
	var buf bytes.Buffer
	if err := g.SaveEdgeList(&buf); err != nil {
		b.Fatal(err)
	}
	s := New()
	s.CacheMaxBytes = cacheBytes
	h := s.Handler()
	req := httptest.NewRequest("PUT", "/v1/graphs/g", &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		b.Fatalf("registering bench graph: status %d body %s", rec.Code, rec.Body.String())
	}
	return h, g.N()
}

// zipfSeeds is the request mix a real serving workload sees: a few hot
// seeds dominate, with a long tail of cold ones.
func zipfSeeds(n, count int) []int {
	rng := rand.New(rand.NewSource(42))
	z := rand.NewZipf(rng, 1.2, 1, uint64(n-1))
	seeds := make([]int, count)
	for i := range seeds {
		seeds[i] = int(z.Uint64())
	}
	return seeds
}

// BenchmarkServeHotPath measures one query through the full handler stack
// (routing, admission, cache, the wire appender) under a Zipf seed mix.
// "hit" serves from a warmed cache; "miss" runs with the cache disabled so
// every request pays a full solve. The hit/miss ratio is the cache's
// value on the serving hot path.
func BenchmarkServeHotPath(b *testing.B) {
	run := func(b *testing.B, h http.Handler, seeds []int) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest("GET",
				fmt.Sprintf("/v1/graphs/g/query?seed=%d&top=10", seeds[i%len(seeds)]), nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("query: status %d body %s", rec.Code, rec.Body.String())
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	}

	b.Run("hit", func(b *testing.B) {
		h, n := benchServer(b, 256<<20)
		seeds := zipfSeeds(n, 1024)
		// Warm every seed in the mix so the measured loop is all hits.
		for _, s := range seeds {
			req := httptest.NewRequest("GET",
				fmt.Sprintf("/v1/graphs/g/query?seed=%d&top=10", s), nil)
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
		run(b, h, seeds)
	})
	b.Run("miss", func(b *testing.B) {
		h, n := benchServer(b, -1) // cache disabled: every request solves
		seeds := zipfSeeds(n, 1024)
		run(b, h, seeds)
	})
}

// BenchmarkServeBatch measures one 64-seed /batch request against 64
// single-seed /query requests through the handler, cache disabled in both
// arms. Every seed runs the same top-k solve either way, so the
// comparison prices one request's overhead against 64.
func BenchmarkServeBatch(b *testing.B) {
	const batch = 64
	b.Run("batch", func(b *testing.B) {
		h, n := benchServer(b, -1)
		var sb strings.Builder
		sb.WriteString(`{"seeds":[`)
		for i := 0; i < batch; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", (i*31)%n)
		}
		sb.WriteString(`],"top":10}`)
		body := sb.String()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest("POST", "/v1/graphs/g/batch", strings.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("batch: status %d body %s", rec.Code, rec.Body.String())
			}
		}
		b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "seeds/s")
	})
	b.Run("perseed", func(b *testing.B) {
		h, n := benchServer(b, -1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				req := httptest.NewRequest("GET",
					fmt.Sprintf("/v1/graphs/g/query?seed=%d&top=10", (j*31)%n), nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("query: status %d", rec.Code)
				}
			}
		}
		b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "seeds/s")
	})
}
