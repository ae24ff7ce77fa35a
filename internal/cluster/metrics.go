package cluster

import "bear/internal/obsv"

// The front's own observability: a dedicated obsv registry (scraped at the
// front's GET /metrics, separate from each shard's) carrying the
// reliability counters the chaos test and the OPERATIONS.md alert rules
// read — ejections, failovers, hedge fires/wins, degraded responses — all
// labeled by shard where a shard is attributable. Every series here is
// documented in OPERATIONS.md ("bear_front_* metrics reference"); keep the
// two in sync when adding series.

type frontMetrics struct {
	reg      *obsv.Registry
	requests *obsv.RequestMetrics

	hedges    *obsv.Counter
	hedgeWins *obsv.Counter

	degradedStale       *obsv.Counter
	degradedUnavailable *obsv.Counter
	degradedPartial     *obsv.Counter

	repairs      *obsv.Counter
	repairErrors *obsv.Counter

	readLatency *obsv.Histogram
}

// shardCounters are one shard's labeled counters, resolved once when the
// front builds its shards, so counting an attempt renders no label string.
type shardCounters struct {
	ejections, probeFailures, failovers, attempts, attemptErrors *obsv.Counter
}

func newFrontMetrics(c *Cluster) *frontMetrics {
	reg := obsv.NewRegistry()
	m := &frontMetrics{reg: reg}
	m.requests = obsv.NewRequestMetrics(reg,
		"bear_front_requests_total", "HTTP requests served by the front, by endpoint and status code.",
		"bear_front_request_seconds", "Front HTTP request latency in seconds, by endpoint.")
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

	// Per-shard series: the counters resolved here once, the state gauges
	// read live at scrape time.
	for _, sh := range c.shards {
		sh := sh
		l := obsv.L("shard", sh.id)
		sh.m = shardCounters{
			ejections: reg.Counter("bear_front_ejections_total",
				"Shards ejected by the health checker (rolling success rate or consecutive probe failures), by shard.", l),
			probeFailures: reg.Counter("bear_front_probe_failures_total",
				"Failed active /readyz probes (unreachable or not ready), by shard.", l),
			failovers: reg.Counter("bear_front_failovers_total",
				"Read attempts abandoned for the next replica after a shard failed or shed, by the shard that failed.", l),
			attempts: reg.Counter("bear_front_attempts_total",
				"Proxied request attempts, by shard (includes hedges and failover retries).", l),
			attemptErrors: reg.Counter("bear_front_attempt_errors_total",
				"Proxied request attempts that failed (transport error or 5xx/429), by shard.", l),
		}
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
			}, l)
		reg.GaugeFunc("bear_front_shard_success_rate",
			"Rolling success rate of proxied requests to the shard (1 with no samples).",
			func() float64 { _, rate, _ := sh.snapshotState(); return rate }, l)
	}
	reg.GaugeFunc("bear_front_shards", "Configured shards.",
		func() float64 { return float64(len(c.shards)) })
	reg.GaugeFunc("bear_front_stale_entries", "Entries in the last-good degradation cache.",
		func() float64 { return float64(c.stale.Stats().Entries) })
	return m
}
