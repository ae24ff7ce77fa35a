package main

import (
	"math"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricSpec names one reported metric, its unit, and for per-layer
// metrics the end-to-end metric (and workload) it should move.
type metricSpec struct {
	name, unit, feeds string
}

// endToEnd is what a user of the cluster sees; every workload reports all
// of them. Latencies are client-observed.
var endToEnd = []metricSpec{
	{"setup_s", "s", ""},
	{"ops_per_s", "1/s", ""},
	{"query_p50_ms", "ms", ""},
	{"topk_p50_ms", "ms", ""},
	{"ppr_p50_ms", "ms", ""},
	{"batch_p50_ms", "ms", ""},
	{"candidates_p50_ms", "ms", ""},
	{"read_p95_ms", "ms", ""},
	{"live_heap_mb", "MB", ""},
}

// perLayer comes from the traced run.
var perLayer = []metricSpec{
	{"client.attempts_per_op", "1/op", "read_p95_ms (all)"},
	{"client.self_ms_per_op", "ms/op", "ops_per_s (hot-read)"},
	{"cluster.self_ms_p50", "ms", "query_p50_ms, ops_per_s (hot-read)"},
	{"cluster.wire_ms_p50", "ms", "query_p50_ms, ops_per_s (hot-read)"},
	{"cluster.self_ms_per_op", "ms/op", "ops_per_s (hot-read)"},
	{"cluster.hedges_per_read", "1/op", "read_p95_ms, ops_per_s (cold-read, churn)"},
	{"cluster.hedge_win_frac", "frac", "read_p95_ms (cold-read, churn)"},
	{"cluster.write_self_ms_p50", "ms", "writer.update_p50_ms, writer.rebuild_p50_ms (churn)"},
	{"server.query_ms_p50", "ms", "query_p50_ms"},
	{"server.topk_ms_p50", "ms", "topk_p50_ms"},
	{"server.ppr_ms_p50", "ms", "ppr_p50_ms"},
	{"server.batch_ms_p50", "ms", "batch_p50_ms"},
	{"server.candidates_ms_p50", "ms", "candidates_p50_ms"},
	{"server.edges_ms_p50", "ms", "writer.update_p50_ms (churn)"},
	{"server.rebuild_ms_p50", "ms", "writer.rebuild_p50_ms (churn)"},
	{"server.shed", "count", "read_p95_ms (all; expected 0)"},
	{"server.resp_bytes_per_read", "B", "p50s (hot-read)"},
	{"server.self_ms_per_op", "ms/op", "p50s (hot-read)"},
	{"resultcache.hit_frac", "frac", "ops_per_s (hot-read)"},
	{"resultcache.coalesced_frac", "frac", "ops_per_s (cold-read)"},
	{"resultcache.evictions", "count", "live_heap_mb, ops_per_s (cold-read)"},
	{"resultcache.bytes_mb", "MB", "live_heap_mb"},
	{"core.self_ms_per_op", "ms/op", "p50s (cold-read)"},
	{"core.forward_solve_us", "us", "p50s (cold-read)"},
	{"core.schur_solve_us", "us", "p50s (cold-read)"},
	{"core.backsolve_us", "us", "p50s (cold-read)"},
	{"core.woodbury_refresh_us", "us", "query_p50_ms (churn)"},
	{"core.woodbury_terms_us", "us", "query_p50_ms (churn)"},
	{"core.topk_push_certified_frac", "frac", "topk_p50_ms (cold-read)"},
	{"core.query_us_p50", "us", "query_p50_ms (serving overhead = difference)"},
	{"core.topk_us_p50", "us", "topk_p50_ms (serving overhead = difference)"},
	{"core.ppr_us_p50", "us", "ppr_p50_ms (serving overhead = difference)"},
	{"core.batch_us_p50", "us", "batch_p50_ms (serving overhead = difference)"},
	{"core.rebuild_incremental_frac", "frac", "writer.rebuild_p50_ms, read_p95_ms (churn)"},
	{"core.rebuild_blocks_refactored", "count", "writer.rebuild_p50_ms (churn)"},
	{"core.rebuild_ordering_ms", "ms", "writer.rebuild_p50_ms, read_p95_ms (churn)"},
	{"core.rebuild_block_lu_ms", "ms", "writer.rebuild_p50_ms, read_p95_ms (churn)"},
	{"core.rebuild_splice_ms", "ms", "writer.rebuild_p50_ms, read_p95_ms (churn)"},
	{"core.rebuild_schur_assembly_ms", "ms", "writer.rebuild_p50_ms, read_p95_ms (churn)"},
	{"core.rebuild_schur_factor_ms", "ms", "writer.rebuild_p50_ms, read_p95_ms (churn)"},
	{"core.preprocess_ordering_s", "s", "setup_s"},
	{"core.preprocess_block_lu_s", "s", "setup_s"},
	{"core.preprocess_schur_assembly_s", "s", "setup_s"},
	{"core.preprocess_schur_factor_s", "s", "setup_s"},
	{"core.hubs", "count", "setup_s, live_heap_mb"},
	{"core.index_mb", "MB", "setup_s, live_heap_mb"},
	{"kernel.spmv_per_solve", "1/solve", "p50s (cold-read)"},
	{"kernel.spmm_per_solve", "1/solve", "batch_p50_ms, candidates_p50_ms (cold-read)"},
	{"kernel.sell_matrices", "count", "p50s (cold-read)"},
	{"runtime.gc_cycles", "count", "read_p95_ms, ops_per_s (cold-read)"},
	{"runtime.gc_pause_ms", "ms", "read_p95_ms, ops_per_s (cold-read)"},
	{"runtime.alloc_kb_per_op", "KB/op", "read_p95_ms, ops_per_s (cold-read)"},
	{"writer.update_p50_ms", "ms", "ops_per_s (churn)"},
	{"writer.rebuild_p50_ms", "ms", "ops_per_s, read_p95_ms (churn)"},
	{"trace.untraced_ops_per_s", "1/s", "tracing overhead"},
	{"trace.traced_ops_per_s", "1/s", "tracing overhead"},
	{"trace.overhead_frac", "frac", "tracing overhead"},
	{"trace.spans", "count", "tracing overhead"},
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// nearestRank is the q-quantile by the nearest-rank rule: for q=0.99 and
// 1000 samples, 10 samples lie above it.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// phaseResult is one timed phase of closed-loop load.
type phaseResult struct {
	wall     time.Duration
	records  []record
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	heapMB   float64
	failures int
}

// latencies returns the client-observed latencies (ms) of the phase's
// successful ops of the given kinds.
func (p *phaseResult) latencies(kinds ...opKind) []float64 {
	var out []float64
	for _, r := range p.records {
		if r.err != nil {
			continue
		}
		for _, k := range kinds {
			if r.op.kind == k {
				out = append(out, ms(r.lat))
				break
			}
		}
	}
	return out
}

func (p *phaseResult) completed() int {
	return len(p.records) - p.failures
}

func (p *phaseResult) opsPerSec() float64 {
	return float64(p.completed()) / p.wall.Seconds()
}

// readKinds are the kinds pooled into read_p95_ms.
var readKinds = []opKind{kQuery, kTopK, kPPR, kBatch, kCandidates}

// endToEndMetrics computes the user-visible metrics of one phase.
func endToEndMetrics(p *phaseResult, setup []float64) map[string]float64 {
	m := map[string]float64{
		"setup_s":      median(setup),
		"ops_per_s":    p.opsPerSec(),
		"read_p95_ms":  nearestRank(p.latencies(readKinds...), 0.95),
		"live_heap_mb": p.heapMB,
	}
	for _, k := range readKinds {
		m[k.String()+"_p50_ms"] = median(p.latencies(k))
	}
	return m
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	view           *traceView
	before, after  scrapes // around the traced phase
	setup          setupResult
	untraced       *phaseResult
	traced         *phaseResult
	direct         map[opKind]float64
	rebuildStages  map[string][]float64
	tracedRebuilds []record
}

func layerMetrics(in layerInputs) map[string]float64 {
	m := map[string]float64{}
	v := in.view

	var ops, roundtrips, reads int
	var clientSelf, clusterSelf, serverSelf, coreSelf float64
	var frontReadSelf, frontWriteSelf, wire []float64
	serverEp := map[string][]float64{}
	stageUS := map[string]float64{}
	var readBytes, readSpans float64
	for i, s := range v.spans {
		self := float64(v.selfTime(i)) / 1000
		switch s.Layer {
		case "client":
			clientSelf += self
			if s.Parent == 0 {
				ops++
				if k := kindByName(s.Name); k.isRead() {
					reads++
				}
			} else {
				roundtrips++
			}
		case "cluster":
			clusterSelf += self
			ep, isAttempt := strings.CutPrefix(s.Name, "attempt/")
			switch {
			case isAttempt && isReadEndpoint(ep):
				for _, k := range v.children[s.ID] {
					if c := v.spans[k]; c.Layer == "server" {
						wire = append(wire, float64(s.dur()-c.dur())/1000)
					}
				}
			case isReadEndpoint(s.Name):
				frontReadSelf = append(frontReadSelf, self)
			case s.Name == "edges" || s.Name == "rebuild":
				frontWriteSelf = append(frontWriteSelf, self)
			}
		case "server":
			serverSelf += self
			serverEp[s.Name] = append(serverEp[s.Name], float64(s.dur())/1000)
			if isReadEndpoint(s.Name) {
				readBytes += float64(s.Bytes)
				readSpans++
			}
		case "core":
			coreSelf += self
			stageUS[s.Name] += float64(s.dur())
		}
	}
	perOp := func(x float64) float64 { return ratio(x, float64(ops)) }
	m["client.attempts_per_op"] = ratio(float64(roundtrips), float64(ops))
	m["client.self_ms_per_op"] = perOp(clientSelf)
	m["cluster.self_ms_p50"] = median(frontReadSelf)
	m["cluster.wire_ms_p50"] = median(wire)
	m["cluster.self_ms_per_op"] = perOp(clusterSelf)
	m["cluster.write_self_ms_p50"] = median(frontWriteSelf)
	for _, ep := range []string{"query", "topk", "ppr", "batch", "candidates", "edges", "rebuild"} {
		m["server."+ep+"_ms_p50"] = median(serverEp[ep])
	}
	m["server.resp_bytes_per_read"] = ratio(readBytes, readSpans)
	m["server.self_ms_per_op"] = perOp(serverSelf)
	m["core.self_ms_per_op"] = perOp(coreSelf)

	hedges := in.after.front.sum("bear_front_hedges_total") - in.before.front.sum("bear_front_hedges_total")
	wins := in.after.front.sum("bear_front_hedge_wins_total") - in.before.front.sum("bear_front_hedge_wins_total")
	m["cluster.hedges_per_read"] = ratio(hedges, float64(reads))
	m["cluster.hedge_win_frac"] = ratio(wins, hedges)

	delta := func(name string) float64 { return in.after.shardSum(name) - in.before.shardSum(name) }
	m["server.shed"] = delta("bear_http_shed_total")
	hits, misses := delta("bear_cache_hits_total"), delta("bear_cache_misses_total")
	m["resultcache.hit_frac"] = ratio(hits, hits+misses)
	m["resultcache.coalesced_frac"] = ratio(delta("bear_cache_coalesced_total"), hits+misses)
	m["resultcache.evictions"] = delta("bear_cache_evictions_total")
	m["resultcache.bytes_mb"] = in.after.shardSum("bear_cache_bytes") / 1e6

	var solves, topkMisses, pruned float64
	for _, r := range in.view.replies {
		solves += float64(r.solves)
		if r.topkMiss {
			topkMisses++
			if r.pruned {
				pruned++
			}
		}
	}
	for _, st := range []string{"forward_solve", "schur_solve", "backsolve", "woodbury_refresh", "woodbury_terms"} {
		m["core."+st+"_us"] = ratio(stageUS[st], solves)
	}
	m["core.topk_push_certified_frac"] = ratio(pruned, topkMisses)
	for _, k := range []opKind{kQuery, kTopK, kPPR, kBatch} {
		m["core."+k.String()+"_us_p50"] = in.direct[k]
	}

	var incremental, blocks float64
	for _, r := range in.tracedRebuilds {
		if r.rebuild.Mode == "incremental" {
			incremental++
		}
		blocks += float64(r.rebuild.BlocksRefactored)
	}
	nReb := float64(len(in.tracedRebuilds))
	m["core.rebuild_incremental_frac"] = ratio(incremental, nReb)
	m["core.rebuild_blocks_refactored"] = ratio(blocks, nReb)
	for _, st := range []string{"ordering", "block_lu", "splice", "schur_assembly", "schur_factor"} {
		m["core.rebuild_"+st+"_ms"] = mean(in.rebuildStages[st])
	}
	for _, st := range []string{"ordering", "block_lu", "schur_assembly", "schur_factor"} {
		m["core.preprocess_"+st+"_s"] = in.setup.scrape.shardSum("bear_preprocess_stage_seconds", `stage="`+st+`"`) / float64(len(in.setup.scrape.shards))
	}
	m["core.hubs"] = float64(in.setup.hubs)
	m["core.index_mb"] = float64(in.setup.indexBytes) / 1e6

	// Kernel call counters are process-wide, so one shard's scrape covers
	// both shards; they are summed over layouts.
	kdelta := func(name string) float64 { return in.after.shards[0].sum(name) - in.before.shards[0].sum(name) }
	m["kernel.spmv_per_solve"] = ratio(kdelta("bear_kernel_spmv_total"), solves)
	m["kernel.spmm_per_solve"] = ratio(kdelta("bear_kernel_spmm_total"), solves)
	m["kernel.sell_matrices"] = in.setup.sellMatrices

	u := in.untraced
	m["runtime.gc_cycles"] = float64(u.mem1.NumGC - u.mem0.NumGC)
	m["runtime.gc_pause_ms"] = float64(u.mem1.PauseTotalNs-u.mem0.PauseTotalNs) / 1e6
	m["runtime.alloc_kb_per_op"] = ratio(float64(u.mem1.TotalAlloc-u.mem0.TotalAlloc)/1e3, float64(len(u.records)))
	m["writer.update_p50_ms"] = median(u.latencies(kUpdate))
	m["writer.rebuild_p50_ms"] = median(u.latencies(kRebuild))

	m["trace.untraced_ops_per_s"] = u.opsPerSec()
	m["trace.traced_ops_per_s"] = in.traced.opsPerSec()
	m["trace.overhead_frac"] = 1 - ratio(in.traced.opsPerSec(), u.opsPerSec())
	m["trace.spans"] = float64(len(v.spans))
	return m
}

func kindByName(name string) opKind {
	for k, n := range kindName {
		if n == name {
			return opKind(k)
		}
	}
	return numKinds
}
