package obsv

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRequestMetricsInstrument: each request observes the endpoint's
// histogram once and raises the counter of the status it answered, and
// the scrape and its Content-Type come from Registry.Handler.
func TestRequestMetricsInstrument(t *testing.T) {
	r := NewRegistry()
	m := NewRequestMetrics(r, "t_requests_total", "requests", "t_request_seconds", "latency")
	status := http.StatusOK
	h := m.Instrument("query", func(w http.ResponseWriter, _ *http.Request) {
		if status != http.StatusOK {
			w.WriteHeader(status)
		}
	})
	for _, s := range []int{http.StatusOK, http.StatusOK, http.StatusNotFound} {
		status = s
		h(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`t_requests_total{code="200",endpoint="query"} 2`,
		`t_requests_total{code="404",endpoint="query"} 1`,
		`t_request_seconds_count{endpoint="query"} 3`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("scrape missing %q:\n%s", want, body)
		}
	}
	if err := LintPrometheusText(strings.NewReader(body)); err != nil {
		t.Fatalf("scrape fails lint: %v", err)
	}
}
