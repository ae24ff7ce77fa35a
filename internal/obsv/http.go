package obsv

import (
	"net/http"
	"strconv"
	"sync"
	"time"
)

// RequestMetrics is the per-endpoint HTTP metric pair a serving tier
// exports: a latency histogram by endpoint, and a request counter by
// endpoint and status code. bearserve and bearfront each build one over
// their own registry and series names, so one dashboard template fits
// both tiers.
type RequestMetrics struct {
	reg                      *Registry
	counter, counterHelp     string
	histogram, histogramHelp string
}

// NewRequestMetrics names the two families on reg: counter counts
// requests, histogram times them in seconds over LatencyBuckets.
func NewRequestMetrics(reg *Registry, counter, counterHelp, histogram, histogramHelp string) *RequestMetrics {
	return &RequestMetrics{reg: reg, counter: counter, counterHelp: counterHelp,
		histogram: histogram, histogramHelp: histogramHelp}
}

// Instrument wraps h with endpoint's series. The histogram is resolved
// here, once, and each status code's counter on the first request that
// answers with it, so a request renders no label string and takes the
// registry lock only for a code its endpoint has not answered before.
// The endpoint label is the route's logical name, not the raw path, so
// label cardinality stays fixed.
func (m *RequestMetrics) Instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	latency := m.reg.Histogram(m.histogram, m.histogramHelp, LatencyBuckets, L("endpoint", endpoint))
	var mu sync.Mutex
	codes := make(map[int]*Counter)
	code := func(status int) *Counter {
		mu.Lock()
		defer mu.Unlock()
		c, ok := codes[status]
		if !ok {
			c = m.reg.Counter(m.counter, m.counterHelp,
				L("endpoint", endpoint), L("code", strconv.Itoa(status)))
			codes[status] = c
		}
		return c
	}
	return func(w http.ResponseWriter, r *http.Request) {
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sr, r)
		latency.Observe(time.Since(start).Seconds())
		code(sr.status).Inc()
	}
}

// statusRecorder captures the response status for the request counters.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}
