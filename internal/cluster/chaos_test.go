package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bear/internal/fault"
	"bear/server"
)

// TestClusterChaos is the headline reliability test: three real bearserve
// shards behind fault injectors, a bearfront on top with fast health
// checking, concurrent query load, and a full kill/eject/restart/recover
// cycle on one shard. The invariants under fire:
//
//   - a graph replicated R=2 stays 100% available — every single read
//     answers 200 throughout the outage;
//   - a graph at replicas=1 whose only holder dies degrades *correctly*:
//     warmed requests answer 200 with X-Degraded: stale, cold requests
//     answer 503 (and only 503 — never a 500) with X-Degraded:
//     unavailable;
//   - the victim is ejected while down, recovers through half-open after
//     restart, and cold reads of the R=1 graph work again;
//   - the ejection is visible in the front's /metrics.
//
// Run under -race in CI: the read path, fanout, probe loop, and the
// health state machine all interleave here.
func TestClusterChaos(t *testing.T) {
	// Three real shards, each behind a kill switch.
	injectors := map[string]*fault.Injector{}
	var shardCfgs []ShardConfig
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("s%d", i)
		inj := fault.NewInjector(int64(i + 1))
		srv := httptest.NewServer(inj.Wrap(server.New().Handler()))
		t.Cleanup(srv.Close)
		injectors[id] = inj
		shardCfgs = append(shardCfgs, ShardConfig{ID: id, URL: srv.URL})
	}

	cfg := Config{
		Shards:      shardCfgs,
		Replication: 2,
		ReadTimeout: 2 * time.Second,
		ReadBudget:  5 * time.Second,
		HedgeDelay:  25 * time.Millisecond,
		Health: HealthConfig{
			WindowSize:    16,
			MinSamples:    4,
			SuccessFloor:  0.5,
			ProbeFailures: 2,
			EjectDuration: 150 * time.Millisecond,
			ProbeInterval: 50 * time.Millisecond,
			ProbeTimeout:  time.Second,
		},
	}
	cfg.WriteTimeout = 10 * time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The victim is one of the R=2 graph's replicas; the R=1 graph is
	// chosen so its single copy lives exactly on the victim — its outage
	// is total, which is what makes its degradation behavior observable.
	const r2 = "replicated"
	victim := c.Replicas(r2)[0]
	r1 := ""
	for i := 0; ; i++ {
		name := fmt.Sprintf("fragile-%d", i)
		if c.Replicas(name)[0] == victim {
			r1 = name
			break
		}
	}

	if rec := doFront(c, http.MethodPut, "/v1/graphs/"+r2, edgeList); rec.Code != http.StatusCreated {
		t.Fatalf("PUT %s: %d %s", r2, rec.Code, rec.Body.String())
	}
	if rec := doFront(c, http.MethodPut, "/v1/graphs/"+r1+"?replicas=1", edgeList); rec.Code != http.StatusCreated {
		t.Fatalf("PUT %s: %d %s", r1, rec.Code, rec.Body.String())
	}

	warmTarget := "/v1/graphs/" + r1 + "/query?seed=0"
	if rec := doFront(c, http.MethodGet, warmTarget, ""); rec.Code != http.StatusOK {
		t.Fatalf("warming %s: %d", warmTarget, rec.Code)
	}

	ctx := t.Context()
	c.Start(ctx) // live probe loop: ejection and recovery run for real

	// Concurrent load for the whole chaos cycle. Workers tally status
	// codes; anything outside {200, 503} — a 500, a 502, a bogus 400 —
	// fails the test.
	var (
		mu       sync.Mutex
		r2Codes  = map[int]int{}
		r1Codes  = map[int]int{}
		badBody  string
		stop     = make(chan struct{})
		workerWG sync.WaitGroup
	)
	for w := 0; w < 8; w++ {
		workerWG.Add(1)
		go func(w int) {
			defer workerWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var rec *httptest.ResponseRecorder
				r1Turn := i%2 == 0
				if r1Turn {
					rec = doFront(c, http.MethodGet, warmTarget, "")
				} else {
					rec = doFront(c, http.MethodGet,
						fmt.Sprintf("/v1/graphs/%s/query?seed=%d", r2, i%4), "")
				}
				mu.Lock()
				if r1Turn {
					r1Codes[rec.Code]++
				} else {
					r2Codes[rec.Code]++
				}
				if rec.Code != http.StatusOK && rec.Code != http.StatusServiceUnavailable && badBody == "" {
					badBody = fmt.Sprintf("%d %s", rec.Code, rec.Body.String())
				}
				mu.Unlock()
				time.Sleep(2 * time.Millisecond)
			}
		}(w)
	}

	waitState := func(want State, timeout time.Duration) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for {
			if st, _, _ := c.byID[victim].snapshotState(); st == want {
				return
			}
			if time.Now().After(deadline) {
				st, _, lastErr := c.byID[victim].snapshotState()
				t.Fatalf("victim %s never reached %v (now %v, lastErr %q)", victim, want, st, lastErr)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	time.Sleep(150 * time.Millisecond) // steady-state load first

	// ---- kill ----
	injectors[victim].SetDown(true)
	waitState(Ejected, 3*time.Second)

	// Cold read of the R=1 graph during the outage: an honest,
	// machine-readable 503 — not a 500, not a hang.
	rec := doFront(c, http.MethodGet, "/v1/graphs/"+r1+"/query?seed=1", "")
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("X-Degraded") != "unavailable" {
		t.Fatalf("cold R=1 read during outage: %d X-Degraded=%q body=%s",
			rec.Code, rec.Header().Get("X-Degraded"), rec.Body.String())
	}
	// Warmed read of the same graph: served stale, flagged as such.
	rec = doFront(c, http.MethodGet, warmTarget, "")
	if rec.Code != http.StatusOK || rec.Header().Get("X-Degraded") != "stale" {
		t.Fatalf("warm R=1 read during outage: %d X-Degraded=%q",
			rec.Code, rec.Header().Get("X-Degraded"))
	}

	time.Sleep(200 * time.Millisecond) // load keeps running against the hole

	// ---- restart ----
	injectors[victim].SetDown(false)
	waitState(Healthy, 3*time.Second)

	// Recovered: cold reads of the fragile graph answer live again.
	rec = doFront(c, http.MethodGet, "/v1/graphs/"+r1+"/query?seed=2", "")
	if rec.Code != http.StatusOK || rec.Header().Get("X-Degraded") != "" {
		t.Fatalf("cold R=1 read after recovery: %d X-Degraded=%q body=%s",
			rec.Code, rec.Header().Get("X-Degraded"), rec.Body.String())
	}

	time.Sleep(100 * time.Millisecond)
	close(stop)
	workerWG.Wait()

	mu.Lock()
	defer mu.Unlock()
	if badBody != "" {
		t.Fatalf("saw a non-200, non-503 response under chaos: %s\nr2=%v r1=%v",
			badBody, r2Codes, r1Codes)
	}
	// The R=2 graph never missed: 100% availability through kill, outage,
	// and recovery.
	for code, n := range r2Codes {
		if code != http.StatusOK {
			t.Fatalf("R=2 graph availability broken: %d × HTTP %d (all codes %v)", n, code, r2Codes)
		}
	}
	if r2Codes[http.StatusOK] == 0 {
		t.Fatal("load generator never exercised the R=2 graph")
	}
	// The warmed R=1 request is also always 200: live before and after,
	// stale during.
	for code, n := range r1Codes {
		if code != http.StatusOK {
			t.Fatalf("warmed R=1 request failed %d × HTTP %d (want stale serving)", n, code)
		}
	}

	// The outage is visible in the front's metrics: the victim's ejection
	// counter moved, and the hedging + degradation series exist for
	// dashboards to find.
	metrics := doFront(c, http.MethodGet, "/metrics", "").Body.String()
	// Every shard's counter is exported from the start, so the victim's
	// must read above zero.
	ejected := fmt.Sprintf("bear_front_ejections_total{shard=%q} ", victim)
	if !strings.Contains(metrics, ejected) || strings.Contains(metrics, ejected+"0\n") {
		t.Fatalf("victim's %s did not move:\n%s", ejected, metrics)
	}
	for _, series := range []string{
		"bear_front_hedges_total",
		"bear_front_hedge_wins_total",
		"bear_front_degraded_stale_total",
		"bear_front_degraded_unavailable_total",
		"bear_front_shard_healthy",
	} {
		if !strings.Contains(metrics, series) {
			t.Fatalf("metrics missing series %s", series)
		}
	}
}

// TestClusterChaosSlowShard exercises the latency (not liveness) side of
// fault injection: a shard that answers, but slowly, must not drag reads
// with it — the hedge fires and the fast replica answers.
func TestClusterChaosSlowShard(t *testing.T) {
	injectors := map[string]*fault.Injector{}
	var shardCfgs []ShardConfig
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("s%d", i)
		inj := fault.NewInjector(int64(i + 1))
		srv := httptest.NewServer(inj.Wrap(server.New().Handler()))
		t.Cleanup(srv.Close)
		injectors[id] = inj
		shardCfgs = append(shardCfgs, ShardConfig{ID: id, URL: srv.URL})
	}
	cfg := Config{Shards: shardCfgs, Replication: 2, HedgeDelay: 15 * time.Millisecond}
	cfg.ReadTimeout = 5 * time.Second
	cfg.WriteTimeout = 10 * time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec := doFront(c, http.MethodPut, "/v1/graphs/g", edgeList); rec.Code != http.StatusCreated {
		t.Fatalf("PUT: %d", rec.Code)
	}

	// The primary develops a 250ms limp with ±20ms of jitter.
	primary := c.Replicas("g")[0]
	injectors[primary].Script(true, fault.Step{Delay: 250 * time.Millisecond, Jitter: 20 * time.Millisecond})

	start := time.Now()
	rec := doFront(c, http.MethodGet, "/v1/graphs/g/query?seed=0", "")
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("read with slow primary: %d %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Hedge") != "win" {
		t.Fatalf("want the hedge to win against a 250ms primary, X-Shard=%q headers=%v",
			rec.Header().Get("X-Shard"), rec.Header())
	}
	if elapsed > 200*time.Millisecond {
		t.Fatalf("hedged read took %v; the slow primary's latency leaked through", elapsed)
	}
}
