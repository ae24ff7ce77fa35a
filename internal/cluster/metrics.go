package cluster

import (
	"net/http"
	"strconv"
	"time"

	"bear/internal/obsv"
)

// The front's own observability: a dedicated obsv registry (scraped at the
// front's GET /metrics, separate from each shard's) carrying the
// reliability counters the chaos test and the OPERATIONS.md alert rules
// read — ejections, failovers, hedge fires/wins, degraded responses — all
// labeled by shard where a shard is attributable. Every series here is
// documented in OPERATIONS.md ("bear_front_* metrics reference"); keep the
// two in sync when adding series.

type frontMetrics struct {
	reg *obsv.Registry

	ejections     shardCounter
	probeFailures shardCounter
	failovers     shardCounter
	attempts      shardCounter
	attemptErrors shardCounter

	hedges    *obsv.Counter
	hedgeWins *obsv.Counter

	degradedStale       *obsv.Counter
	degradedUnavailable *obsv.Counter
	degradedPartial     *obsv.Counter

	repairs      *obsv.Counter
	repairErrors *obsv.Counter

	readLatency *obsv.Histogram
}

// shardCounter is a tiny counter-vec over the shard label; obsv metric
// constructors are get-or-create, so WithShard is just a lookup.
type shardCounter struct {
	reg        *obsv.Registry
	name, help string
}

func (v shardCounter) WithShard(id string) *obsv.Counter {
	return v.reg.Counter(v.name, v.help, obsv.L("shard", id))
}

func newFrontMetrics(c *Cluster) *frontMetrics {
	reg := obsv.NewRegistry()
	m := &frontMetrics{reg: reg}
	m.ejections = shardCounter{reg, "bear_front_ejections_total",
		"Shards ejected by the health checker (rolling success rate or consecutive probe failures), by shard."}
	m.probeFailures = shardCounter{reg, "bear_front_probe_failures_total",
		"Failed active /readyz probes (unreachable or not ready), by shard."}
	m.failovers = shardCounter{reg, "bear_front_failovers_total",
		"Read attempts abandoned for the next replica after a shard failed or shed, by the shard that failed."}
	m.attempts = shardCounter{reg, "bear_front_attempts_total",
		"Proxied request attempts, by shard (includes hedges and failover retries)."}
	m.attemptErrors = shardCounter{reg, "bear_front_attempt_errors_total",
		"Proxied request attempts that failed (transport error or 5xx/429), by shard."}

	m.hedges = reg.Counter("bear_front_hedges_total",
		"Hedged reads fired: a second replica was asked after the hedge deadline passed without an answer.")
	m.hedgeWins = reg.Counter("bear_front_hedge_wins_total",
		"Hedged reads where the hedge answered first; the ratio to bear_front_hedges_total is how often hedging paid.")

	m.degradedStale = reg.Counter("bear_front_degraded_stale_total",
		"Reads answered from the front's last-good cache (X-Degraded: stale) because no replica could answer.")
	m.degradedUnavailable = reg.Counter("bear_front_degraded_unavailable_total",
		"Reads answered 503 with X-Degraded: unavailable — no replica and no fresh-enough stale result.")
	m.degradedPartial = reg.Counter("bear_front_degraded_partial_total",
		"Mutations or scatter reads that reached only part of their replica set (X-Degraded: partial).")

	m.repairs = reg.Counter("bear_front_repairs_total",
		"Anti-entropy repairs that re-pushed a graph to at least one replica.")
	m.repairErrors = reg.Counter("bear_front_repair_errors_total",
		"Repair requests that failed outright (no healthy source, or every push failed).")

	m.readLatency = reg.Histogram("bear_front_read_seconds",
		"Successful read-attempt latency against shards, in seconds; feeds the adaptive hedge deadline.",
		obsv.LatencyBuckets)

	// Shard state gauges, read live at scrape time.
	for _, sh := range c.shards {
		sh := sh
		reg.GaugeFunc("bear_front_shard_healthy",
			"1 when the shard is healthy, 0.5 when half-open, 0 when ejected.",
			func() float64 {
				st, _, _ := sh.snapshotState()
				switch st {
				case Healthy:
					return 1
				case HalfOpen:
					return 0.5
				default:
					return 0
				}
			}, obsv.L("shard", sh.id))
		reg.GaugeFunc("bear_front_shard_success_rate",
			"Rolling success rate of proxied requests to the shard (1 with no samples).",
			func() float64 { _, rate, _ := sh.snapshotState(); return rate },
			obsv.L("shard", sh.id))
	}
	reg.GaugeFunc("bear_front_shards", "Configured shards.",
		func() float64 { return float64(len(c.shards)) })
	reg.GaugeFunc("bear_front_stale_entries", "Entries in the last-good degradation cache.",
		func() float64 { return float64(c.stale.Stats().Entries) })
	return m
}

// endpoint-level HTTP metrics for the front itself, mirroring the shape
// bearserve exports so one dashboard template fits both tiers.
func (c *Cluster) observeRequest(endpoint string, status int, elapsed time.Duration) {
	c.m.reg.Counter("bear_front_requests_total",
		"HTTP requests served by the front, by endpoint and status code.",
		obsv.L("endpoint", endpoint), obsv.L("code", strconv.Itoa(status))).Inc()
	c.m.reg.Histogram("bear_front_request_seconds",
		"Front HTTP request latency in seconds, by endpoint.",
		obsv.LatencyBuckets, obsv.L("endpoint", endpoint)).Observe(elapsed.Seconds())
}

func (c *Cluster) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = c.m.reg.WritePrometheus(w)
}
