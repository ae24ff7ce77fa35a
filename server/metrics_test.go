package server

import (
	"bytes"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bear/internal/obsv"
)

// newHTTPTestServer serves a pre-configured Server (newTestServer covers
// the default-configuration case).
func newHTTPTestServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// syncWriter serializes writes so test log buffers are race-free against
// background goroutines.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// scrape fetches /metrics and returns the body after asserting the
// response is well-formed Prometheus text.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obsv.LintPrometheusText(bytes.NewReader(body)); err != nil {
		t.Fatalf("scrape is not valid Prometheus text: %v\n%s", err, body)
	}
	return string(body)
}

// TestMetricsScrape drives real traffic through the handler and asserts
// the scrape is lint-clean and covers every metric family the runbook
// documents: request counters, latency histograms, cache counters,
// in-flight gauge, and the per-graph preprocessing stage timings.
func TestMetricsScrape(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)
	doJSON(t, "GET", base+"/g/query?seed=3&top=5", "", http.StatusOK) // miss
	doJSON(t, "GET", base+"/g/query?seed=3&top=5", "", http.StatusOK) // hit
	doJSON(t, "GET", base+"/missing/query?seed=0", "", http.StatusNotFound)

	body := scrape(t, ts.URL)
	for _, want := range []string{
		`bear_http_requests_total{code="200",endpoint="query"} 2`,
		`bear_http_requests_total{code="404",endpoint="query"} 1`,
		`bear_http_requests_total{code="201",endpoint="put"} 1`,
		`bear_http_request_seconds_bucket{endpoint="query",le="+Inf"} 3`,
		"bear_http_request_seconds_sum{", "bear_http_request_seconds_count{",
		"bear_http_in_flight 0",
		"bear_http_shed_total 0",
		"bear_http_panics_total 0",
		"bear_cache_hits_total 1",
		"bear_cache_misses_total 1",
		"bear_cache_coalesced_total 0",
		"bear_cache_entries 1",
		"bear_graphs 1",
		`bear_graph_nodes{graph="g"}`,
		`bear_graph_edges{graph="g"}`,
		`bear_graph_pending_updates{graph="g"} 0`,
		`bear_graph_rebuilding{graph="g"} 0`,
		`bear_precomputed_bytes{graph="g"}`,
		`bear_preprocess_stage_seconds{graph="g",stage="ordering"}`,
		`bear_preprocess_stage_seconds{graph="g",stage="block_lu"}`,
		`bear_preprocess_stage_seconds{graph="g",stage="schur_assembly"}`,
		`bear_preprocess_stage_seconds{graph="g",stage="schur_factor"}`,
		`bear_preprocess_stage_seconds{graph="g",stage="total"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestMetricsDisabled: EnableMetrics=false unmaps the endpoint but the
// rest of the API is untouched.
func TestMetricsDisabled(t *testing.T) {
	s := New()
	s.EnableMetrics = false
	ts := newHTTPTestServer(t, s)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled /metrics: status %d, want 404", resp.StatusCode)
	}
	doJSON(t, "GET", ts.URL+"/healthz", "", http.StatusOK)
}

// metricValue extracts one unlabeled sample value from a scrape body.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(line[len(name)+1:]), 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not in scrape", name)
	return 0
}

// TestDeleteDropsGraphSeries: deleting a graph must remove every series
// labeled with it so a dead graph cannot linger on dashboards.
func TestDeleteDropsGraphSeries(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/doomed", edgeListBody(), http.StatusCreated)
	if body := scrape(t, ts.URL); !strings.Contains(body, `graph="doomed"`) {
		t.Fatal("per-graph series not exported after PUT")
	}
	doJSON(t, "DELETE", base+"/doomed", "", http.StatusOK)
	if body := scrape(t, ts.URL); strings.Contains(body, `graph="doomed"`) {
		t.Error("per-graph series survived DELETE")
	}
}

// TestQueryTraceDebug: ?trace=1 returns the solver-stage breakdown; a
// cache miss shows the Algorithm 2 stages, a hit only the cache lookup.
func TestQueryTraceDebug(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)

	spanNames := func(out map[string]interface{}) map[string]bool {
		t.Helper()
		raw, ok := out["trace"].([]interface{})
		if !ok {
			t.Fatalf("response has no trace array: %v", out)
		}
		names := make(map[string]bool)
		for _, sp := range raw {
			m := sp.(map[string]interface{})
			names[m["span"].(string)] = true
			if _, ok := m["ms"].(float64); !ok {
				t.Fatalf("span %v has no ms field", sp)
			}
		}
		return names
	}

	miss := doJSON(t, "GET", base+"/g/query?seed=5&trace=1", "", http.StatusOK)
	got := spanNames(miss)
	for _, want := range []string{obsv.SpanCacheLookup, obsv.SpanForwardSolve, obsv.SpanSchurSolve, obsv.SpanBackSolve} {
		if !got[want] {
			t.Errorf("miss trace lacks span %q (got %v)", want, got)
		}
	}

	hit := doJSON(t, "GET", base+"/g/query?seed=5&trace=1", "", http.StatusOK)
	got = spanNames(hit)
	if !got[obsv.SpanCacheLookup] {
		t.Errorf("hit trace lacks cache lookup span: %v", got)
	}
	if got[obsv.SpanSchurSolve] {
		t.Errorf("cache hit ran a solve: %v", got)
	}

	// Untraced requests carry no trace key at all.
	plain := doJSON(t, "GET", base+"/g/query?seed=6", "", http.StatusOK)
	if _, ok := plain["trace"]; ok {
		t.Error("untraced response contains a trace field")
	}

	// The batch endpoint reports merged spans the same way.
	batch := doJSON(t, "POST", base+"/g/batch?trace=1", `{"seeds":[7,8],"top":3}`, http.StatusOK)
	got = spanNames(batch)
	for _, want := range []string{obsv.SpanCacheLookup, obsv.SpanSchurSolve} {
		if !got[want] {
			t.Errorf("batch trace lacks span %q (got %v)", want, got)
		}
	}
}

// TestSlowQueryLog: with TraceSlow set below any real query duration,
// every cache-missing query must emit a structured slow-query line with
// the per-stage breakdown.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	sw := &syncWriter{w: &buf}
	s := New()
	s.TraceSlow = time.Nanosecond
	s.ErrorLog = log.New(sw, "", 0)
	ts := newHTTPTestServer(t, s)
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)
	doJSON(t, "GET", base+"/g/query?seed=4", "", http.StatusOK)

	sw.mu.Lock()
	logged := buf.String()
	sw.mu.Unlock()
	if !strings.Contains(logged, "slow query:") {
		t.Fatalf("no slow-query line logged; log: %q", logged)
	}
	for _, want := range []string{"endpoint=query", "graph=g", "seed=4", "cache=miss",
		obsv.SpanForwardSolve, obsv.SpanSchurSolve, obsv.SpanBackSolve} {
		if !strings.Contains(logged, want) {
			t.Errorf("slow-query line missing %q: %q", want, logged)
		}
	}
}

// TestSnapshotRestoreKeepsGraphSeries: restoring a snapshot re-exports
// the per-graph series bound to the restored Dynamic instances.
func TestSnapshotRestoreKeepsGraphSeries(t *testing.T) {
	s, ts := newTestServer(t)
	doJSON(t, "PUT", ts.URL+"/v1/graphs/kept", edgeListBody(), http.StatusCreated)

	var snap bytes.Buffer
	if err := s.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}

	s2 := New()
	ts2 := newHTTPTestServer(t, s2)
	doJSON(t, "PUT", ts2.URL+"/v1/graphs/old", edgeListBody(), http.StatusCreated)
	if err := s2.ReadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	body := scrape(t, ts2.URL)
	if !strings.Contains(body, `bear_graph_nodes{graph="kept"}`) {
		t.Error("restored graph has no metric series")
	}
	if strings.Contains(body, `graph="old"`) {
		t.Error("pre-restore graph series survived the restore")
	}
}

// TestOrderingSelectionAndMetrics: the PUT ?ordering= override must be
// reflected in the graph info and in the bear_ordering_selected gauge
// family — exactly one engine at 1 per graph; an unknown name is a 400,
// as is the removed nd engine.
func TestOrderingSelectionAndMetrics(t *testing.T) {
	s := New()
	s.DefaultOrdering = "" // slashburn
	ts := newHTTPTestServer(t, s)
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/md?ordering=mindeg", edgeListBody(), http.StatusCreated)
	doJSON(t, "PUT", base+"/def", edgeListBody(), http.StatusCreated)
	doJSON(t, "PUT", base+"/bad?ordering=no-such-engine", edgeListBody(), http.StatusBadRequest)
	doJSON(t, "PUT", base+"/bad?ordering=nd", edgeListBody(), http.StatusBadRequest)

	info := doJSON(t, "GET", base+"/md", "", http.StatusOK)
	if got := info["ordering"]; got != "mindeg" {
		t.Errorf("info ordering = %v, want mindeg", got)
	}
	if got := doJSON(t, "GET", base+"/def", "", http.StatusOK)["ordering"]; got != "slashburn" {
		t.Errorf("default info ordering = %v, want slashburn", got)
	}

	body := scrape(t, ts.URL)
	for _, want := range []string{
		`bear_ordering_selected{graph="md",ordering="mindeg"} 1`,
		`bear_ordering_selected{graph="md",ordering="slashburn"} 0`,
		`bear_ordering_selected{graph="def",ordering="slashburn"} 1`,
		`bear_ordering_selected{graph="def",ordering="mindeg"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if strings.Contains(body, `graph="bad"`) {
		t.Error("rejected PUT left metric series behind")
	}
}
