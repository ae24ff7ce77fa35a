package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bear/server"
)

// edgeList is a small connected graph every proxy test uploads.
const edgeList = "0 1\n1 2\n2 3\n3 0\n1 3\n"

// bootShards runs n real bearserve instances and returns their configs.
func bootShards(t *testing.T, n int) []ShardConfig {
	t.Helper()
	cfgs := make([]ShardConfig, n)
	for i := 0; i < n; i++ {
		srv := httptest.NewServer(server.New().Handler())
		t.Cleanup(srv.Close)
		cfgs[i] = ShardConfig{ID: fmt.Sprintf("s%d", i), URL: srv.URL}
	}
	return cfgs
}

func newFront(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cfg.DisableHedge = true // tests opt back in explicitly
	cfg.ReadTimeout = 5 * time.Second
	cfg.WriteTimeout = 5 * time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func doFront(c *Cluster, method, target, body string) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, req)
	return rec
}

// shardHasGraph asks a shard directly (bypassing the front).
func shardHasGraph(t *testing.T, url, graph string) bool {
	t.Helper()
	resp, err := http.Get(url + "/v1/graphs/" + graph)
	if err != nil {
		t.Fatalf("asking shard: %v", err)
	}
	defer resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func TestProxyPutQueryEndToEnd(t *testing.T) {
	shards := bootShards(t, 3)
	c := newFront(t, Config{Shards: shards, Replication: 2})

	rec := doFront(c, http.MethodPut, "/v1/graphs/g", edgeList)
	if rec.Code != http.StatusCreated {
		t.Fatalf("PUT through front: %d %s", rec.Code, rec.Body.String())
	}
	if got := rec.Result().Header["X-Replica-Outcome"]; len(got) != 2 {
		t.Fatalf("want 2 X-Replica-Outcome headers, got %v", got)
	}

	// The graph must land on exactly its 2 placement replicas.
	placement := map[string]bool{}
	for _, id := range c.Replicas("g") {
		placement[id] = true
	}
	for _, sc := range shards {
		if has := shardHasGraph(t, sc.URL, "g"); has != placement[sc.ID] {
			t.Fatalf("shard %s has graph=%v, placement says %v", sc.ID, has, placement[sc.ID])
		}
	}

	rec = doFront(c, http.MethodGet, "/v1/graphs/g/query?seed=0", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("query through front: %d %s", rec.Code, rec.Body.String())
	}
	if sh := rec.Header().Get("X-Shard"); !placement[sh] {
		t.Fatalf("X-Shard %q is not a placement replica of g", sh)
	}

	// The scatter list reports the replicated graph once.
	rec = doFront(c, http.MethodGet, "/v1/graphs", "")
	var list struct {
		Graphs []struct {
			Name string `json:"name"`
		} `json:"graphs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(list.Graphs) != 1 || list.Graphs[0].Name != "g" {
		t.Fatalf("scatter list = %+v, want exactly [g]", list.Graphs)
	}
}

func TestProxyReadFailover(t *testing.T) {
	// Two stub shards; whichever is primary for "g" always fails.
	urls := make([]string, 2)
	for i := range urls {
		i := i
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/query") {
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprintf(w, `{"from":%d}`, i)
				return
			}
			w.WriteHeader(http.StatusOK)
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"induced"}`, http.StatusInternalServerError)
	}))
	t.Cleanup(broken.Close)

	c := newFront(t, Config{Shards: []ShardConfig{
		{ID: "a", URL: urls[0]}, {ID: "b", URL: urls[1]},
	}, Replication: 2})
	primary := c.Replicas("g")[0]
	// Repoint the primary at the always-500 stub.
	c.byID[primary].base = broken.URL

	rec := doFront(c, http.MethodGet, "/v1/graphs/g/query?seed=0", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("failover read: %d %s", rec.Code, rec.Body.String())
	}
	secondary := c.Replicas("g")[1]
	if sh := rec.Header().Get("X-Shard"); sh != secondary {
		t.Fatalf("X-Shard = %q, want failover to %q", sh, secondary)
	}
	metrics := doFront(c, http.MethodGet, "/metrics", "").Body.String()
	want := fmt.Sprintf(`bear_front_failovers_total{shard=%q} 1`, primary)
	if !strings.Contains(metrics, want) {
		t.Fatalf("metrics missing %q:\n%s", want, metrics)
	}
}

func TestProxyDegradedStaleThenUnavailable(t *testing.T) {
	down := false
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down {
			http.Error(w, `{"error":"dead"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"scores":[1]}`)
	}))
	t.Cleanup(srv.Close)
	c := newFront(t, Config{Shards: []ShardConfig{{ID: "solo", URL: srv.URL}}, Replication: 1})

	// Warm the last-good cache.
	if rec := doFront(c, http.MethodGet, "/v1/graphs/g/query?seed=0", ""); rec.Code != http.StatusOK {
		t.Fatalf("warm read: %d", rec.Code)
	}

	down = true

	// Same request: answered stale, flagged, counted.
	rec := doFront(c, http.MethodGet, "/v1/graphs/g/query?seed=0", "")
	if rec.Code != http.StatusOK || rec.Header().Get("X-Degraded") != "stale" {
		t.Fatalf("stale read: code=%d X-Degraded=%q", rec.Code, rec.Header().Get("X-Degraded"))
	}
	if rec.Body.String() != `{"scores":[1]}` {
		t.Fatalf("stale body = %q", rec.Body.String())
	}

	// A request never cached: machine-readable 503, never 500.
	rec = doFront(c, http.MethodGet, "/v1/graphs/g/query?seed=99", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("uncached degraded read: %d, want 503", rec.Code)
	}
	if rec.Header().Get("X-Degraded") != "unavailable" || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("503 headers: X-Degraded=%q Retry-After=%q",
			rec.Header().Get("X-Degraded"), rec.Header().Get("Retry-After"))
	}
	var e struct {
		Reason string `json:"reason"`
		Graph  string `json:"graph"`
	}
	if json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Reason != "no_replica_available" || e.Graph != "g" {
		t.Fatalf("503 body not machine-readable: %s", rec.Body.String())
	}

	// With stale serving disabled the cached answer is off-limits too.
	c2 := newFront(t, Config{Shards: []ShardConfig{{ID: "solo", URL: srv.URL}},
		Replication: 1, StaleTTL: -1})
	if rec := doFront(c2, http.MethodGet, "/v1/graphs/g/query?seed=0", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("StaleTTL<0 must disable stale serving, got %d", rec.Code)
	}
}

func TestProxyMutationPartial(t *testing.T) {
	shards := bootShards(t, 2)
	c := newFront(t, Config{Shards: shards, Replication: 2})
	// Break one replica after placement is known.
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"induced"}`, http.StatusInternalServerError)
	}))
	t.Cleanup(broken.Close)
	secondary := c.Replicas("g")[1]
	c.byID[secondary].base = broken.URL

	rec := doFront(c, http.MethodPut, "/v1/graphs/g", edgeList)
	if rec.Code != http.StatusCreated {
		t.Fatalf("partial PUT: %d %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Degraded") != "partial" {
		t.Fatalf("want X-Degraded: partial, got %q", rec.Header().Get("X-Degraded"))
	}
	outcomes := rec.Result().Header["X-Replica-Outcome"]
	joined := strings.Join(outcomes, " ")
	if len(outcomes) != 2 || !strings.Contains(joined, secondary+"=500") {
		t.Fatalf("outcome headers = %v, want the 500 from %s visible", outcomes, secondary)
	}
}

func TestProxyMutationAgreedErrorForwards(t *testing.T) {
	shards := bootShards(t, 2)
	c := newFront(t, Config{Shards: shards, Replication: 2})
	// Both replicas reject garbage identically: the front forwards the
	// verdict instead of blaming the cluster with a 503.
	rec := doFront(c, http.MethodPut, "/v1/graphs/bad", "")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("agreed 400 should forward, got %d %s", rec.Code, rec.Body.String())
	}
	// And a read of a graph nobody holds is a plain 404.
	rec = doFront(c, http.MethodGet, "/v1/graphs/nothere/query?seed=0", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("all-replicas-404 should forward 404, got %d", rec.Code)
	}
}

func TestProxyReducedReplication(t *testing.T) {
	shards := bootShards(t, 3)
	c := newFront(t, Config{Shards: shards, Replication: 2})

	rec := doFront(c, http.MethodPut, "/v1/graphs/solo?replicas=1", edgeList)
	if rec.Code != http.StatusCreated {
		t.Fatalf("PUT replicas=1: %d %s", rec.Code, rec.Body.String())
	}
	placement := c.Replicas("solo")
	byID := map[string]string{}
	for _, sc := range shards {
		byID[sc.ID] = sc.URL
	}
	if !shardHasGraph(t, byID[placement[0]], "solo") {
		t.Fatal("primary must hold the reduced-replication graph")
	}
	if shardHasGraph(t, byID[placement[1]], "solo") {
		t.Fatal("secondary must NOT hold a replicas=1 graph")
	}

	// Reads still work: the secondary's 404 makes the front try the
	// primary rather than giving up.
	rec = doFront(c, http.MethodGet, "/v1/graphs/solo/query?seed=0", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("read of replicas=1 graph: %d %s", rec.Code, rec.Body.String())
	}
	if sh := rec.Header().Get("X-Shard"); sh != placement[0] {
		t.Fatalf("X-Shard = %q, want primary %q", sh, placement[0])
	}
}

func TestProxyHedgedRead(t *testing.T) {
	shards := bootShards(t, 2)
	cfg := Config{Shards: shards, Replication: 2, HedgeDelay: 20 * time.Millisecond}
	cfg.ReadTimeout = 5 * time.Second
	cfg.WriteTimeout = 5 * time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec := doFront(c, http.MethodPut, "/v1/graphs/g", edgeList); rec.Code != http.StatusCreated {
		t.Fatalf("PUT: %d", rec.Code)
	}
	// Make the primary slow (but healthy): the hedge should beat it.
	primary := c.Replicas("g")[0]
	realBase := c.byID[primary].base
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(300 * time.Millisecond)
		proxyReq, _ := http.NewRequestWithContext(r.Context(), r.Method, realBase+r.URL.RequestURI(), r.Body)
		resp, err := http.DefaultClient.Do(proxyReq)
		if err != nil {
			http.Error(w, `{"error":"slow proxy"}`, http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}))
	t.Cleanup(slow.Close)
	c.byID[primary].base = slow.URL

	rec := doFront(c, http.MethodGet, "/v1/graphs/g/query?seed=0", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("hedged read: %d %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Hedge") != "win" {
		t.Fatalf("want X-Hedge: win from the fast secondary, headers=%v", rec.Header())
	}
	metrics := doFront(c, http.MethodGet, "/metrics", "").Body.String()
	for _, series := range []string{"bear_front_hedges_total 1", "bear_front_hedge_wins_total 1"} {
		if !strings.Contains(metrics, series) {
			t.Fatalf("metrics missing %q", series)
		}
	}
}

func TestClusterStatusEndpoint(t *testing.T) {
	shards := bootShards(t, 3)
	c := newFront(t, Config{Shards: shards, Replication: 2})
	rec := doFront(c, http.MethodGet, "/v1/cluster/status?graph=g", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status: %d", rec.Code)
	}
	var st struct {
		Replication int `json:"replication"`
		Shards      []struct {
			ID          string  `json:"id"`
			State       string  `json:"state"`
			SuccessRate float64 `json:"success_rate"`
		} `json:"shards"`
		Replicas []string `json:"replicas"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	if st.Replication != 2 || len(st.Shards) != 3 || len(st.Replicas) != 2 {
		t.Fatalf("status = %+v", st)
	}
	for _, sh := range st.Shards {
		if sh.State != "healthy" || sh.SuccessRate != 1 {
			t.Fatalf("fresh shard %s: state=%s rate=%v", sh.ID, sh.State, sh.SuccessRate)
		}
	}
}

func TestRepairRestoresLaggingReplica(t *testing.T) {
	shards := bootShards(t, 3)
	c := newFront(t, Config{Shards: shards, Replication: 2})
	byID := map[string]string{}
	for _, sc := range shards {
		byID[sc.ID] = sc.URL
	}

	// A replicas=1 graph leaves the secondary lagging (no copy at all).
	if rec := doFront(c, http.MethodPut, "/v1/graphs/g?replicas=1", edgeList); rec.Code != http.StatusCreated {
		t.Fatalf("PUT: %d", rec.Code)
	}
	placement := c.Replicas("g")

	rec := doFront(c, http.MethodPost, "/v1/cluster/repair?graph=g", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("repair: %d %s", rec.Code, rec.Body.String())
	}
	var rep struct {
		Source   string           `json:"source"`
		Outcomes []ReplicaOutcome `json:"outcomes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("decoding repair: %v", err)
	}
	if rep.Source != placement[0] {
		t.Fatalf("repair source = %s, want primary %s", rep.Source, placement[0])
	}
	if len(rep.Outcomes) != 1 || !rep.Outcomes[0].OK || rep.Outcomes[0].Shard != placement[1] {
		t.Fatalf("repair outcomes = %+v, want one OK push to %s", rep.Outcomes, placement[1])
	}
	if !shardHasGraph(t, byID[placement[1]], "g") {
		t.Fatal("secondary still lacks the graph after repair")
	}

	// Replicas agree now: a second repair is an honest no-op.
	rec = doFront(c, http.MethodPost, "/v1/cluster/repair?graph=g", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("idempotent repair: %d", rec.Code)
	}
	rep.Outcomes = nil
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil || len(rep.Outcomes) != 0 {
		t.Fatalf("second repair should push nothing, got %+v (err %v)", rep.Outcomes, err)
	}

	// Repairing an unknown graph is a 503 with a machine-readable reason.
	rec = doFront(c, http.MethodPost, "/v1/cluster/repair?graph=nope", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("repair of missing graph: %d", rec.Code)
	}
}

func TestFrontReadyz(t *testing.T) {
	shards := bootShards(t, 2)
	c := newFront(t, Config{Shards: shards, Replication: 2})
	if rec := doFront(c, http.MethodGet, "/readyz", ""); rec.Code != http.StatusOK {
		t.Fatalf("fresh front readyz: %d", rec.Code)
	}
	// All shards ejected: the front honestly reports it cannot serve.
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.state = Ejected
		sh.ejectedAt = time.Now()
		sh.mu.Unlock()
	}
	rec := doFront(c, http.MethodGet, "/readyz", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-ejected front readyz: %d, want 503", rec.Code)
	}
}

// TestProxyRebuildFanOut covers the rebuild mutation path end to end
// through the front: the ?mode= selector must survive the fan-out to
// every placement replica, per-replica outcomes must be reported, and a
// replica failing mid-rebuild must flag the response partial rather than
// failing or hiding the miss.
func TestProxyRebuildFanOut(t *testing.T) {
	shards := bootShards(t, 3)
	c := newFront(t, Config{Shards: shards, Replication: 2})

	if rec := doFront(c, http.MethodPut, "/v1/graphs/g", edgeList); rec.Code != http.StatusCreated {
		t.Fatalf("PUT: %d %s", rec.Code, rec.Body.String())
	}

	// An invalid mode is an agreed 400 from every replica — which proves
	// the ?mode= query string reaches the shards through the fan-out.
	if rec := doFront(c, http.MethodPost, "/v1/graphs/g/rebuild?mode=sideways", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("mode=sideways: %d %s, want agreed 400", rec.Code, rec.Body.String())
	}

	// Dirty a node on every replica, then force a full rebuild through
	// the front: both placement replicas must run it and report success.
	if rec := doFront(c, http.MethodPost, "/v1/graphs/g/edges", `{"op":"add","u":0,"v":2,"w":1}`); rec.Code != http.StatusOK {
		t.Fatalf("edges: %d %s", rec.Code, rec.Body.String())
	}
	rec := doFront(c, http.MethodPost, "/v1/graphs/g/rebuild?mode=full", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("rebuild through front: %d %s", rec.Code, rec.Body.String())
	}
	outcomes := rec.Result().Header["X-Replica-Outcome"]
	if len(outcomes) != 2 {
		t.Fatalf("want 2 X-Replica-Outcome headers, got %v", outcomes)
	}
	for _, o := range outcomes {
		if !strings.Contains(o, "=200") {
			t.Fatalf("outcome %q is not a success; all = %v", o, outcomes)
		}
	}
	var rep struct {
		Mode      string `json:"mode"`
		Requested string `json:"requested"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil || rep.Mode != "full" || rep.Requested != "full" {
		t.Fatalf("forwarded rebuild body = %s (err %v), want mode/requested full", rec.Body.String(), err)
	}

	// Break one replica: the rebuild still succeeds on the other, and the
	// response says exactly who missed it.
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"induced"}`, http.StatusInternalServerError)
	}))
	t.Cleanup(broken.Close)
	secondary := c.Replicas("g")[1]
	c.byID[secondary].base = broken.URL

	rec = doFront(c, http.MethodPost, "/v1/graphs/g/rebuild?mode=full", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("partial rebuild: %d %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Degraded") != "partial" {
		t.Fatalf("want X-Degraded: partial, got %q", rec.Header().Get("X-Degraded"))
	}
	if joined := strings.Join(rec.Result().Header["X-Replica-Outcome"], " "); !strings.Contains(joined, secondary+"=500") {
		t.Fatalf("outcome headers %q must show the 500 from %s", joined, secondary)
	}
}

// TestProxyCandidatesIsARead: POST /candidates is answered by one replica
// under the read policy — not fanned out like a mutation — so it fails
// over past a 503 primary and, with both replicas down, serves the last
// good answer flagged X-Degraded: stale.
func TestProxyCandidatesIsARead(t *testing.T) {
	type stub struct {
		hits atomic.Int32 // /candidates requests that reached this shard
		down atomic.Bool  // answer everything 503
	}
	stubs := map[string]*stub{}
	var cfgs []ShardConfig
	for i := 0; i < 2; i++ {
		st, real := &stub{}, server.New().Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/candidates") {
				st.hits.Add(1)
			}
			if st.down.Load() {
				http.Error(w, `{"error":"induced"}`, http.StatusServiceUnavailable)
				return
			}
			real.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		id := fmt.Sprintf("s%d", i)
		stubs[id] = st
		cfgs = append(cfgs, ShardConfig{ID: id, URL: srv.URL})
	}
	c := newFront(t, Config{Shards: cfgs, Replication: 2})
	if rec := doFront(c, http.MethodPut, "/v1/graphs/g", edgeList); rec.Code != http.StatusCreated {
		t.Fatalf("PUT: %d %s", rec.Code, rec.Body.String())
	}
	primary, secondary := c.Replicas("g")[0], c.Replicas("g")[1]
	const body = `{"seeds":[0,1],"k":2}`
	hits := func() (int32, int32) { return stubs[primary].hits.Load(), stubs[secondary].hits.Load() }

	rec := doFront(c, http.MethodPost, "/v1/graphs/g/candidates", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("candidates: %d %s", rec.Code, rec.Body.String())
	}
	if p, s := hits(); p != 1 || s != 0 {
		t.Fatalf("candidates reached primary %d and secondary %d times, want exactly the primary once", p, s)
	}
	if sh := rec.Header().Get("X-Shard"); sh != primary {
		t.Fatalf("X-Shard = %q, want primary %q", sh, primary)
	}
	if got := rec.Result().Header["X-Replica-Outcome"]; len(got) != 0 {
		t.Fatalf("a read must not report mutation fan-out outcomes, got %v", got)
	}
	want := rec.Body.String()

	stubs[primary].down.Store(true)
	rec = doFront(c, http.MethodPost, "/v1/graphs/g/candidates", body)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Shard") != secondary {
		t.Fatalf("failover: %d X-Shard=%q, want 200 from %q", rec.Code, rec.Header().Get("X-Shard"), secondary)
	}
	if p, s := hits(); p != 2 || s != 1 {
		t.Fatalf("after failover: primary %d, secondary %d hits, want 2 and 1", p, s)
	}
	if rec.Body.String() != want {
		t.Fatalf("failover answer differs:\n%s\nwant\n%s", rec.Body.String(), want)
	}

	stubs[secondary].down.Store(true)
	rec = doFront(c, http.MethodPost, "/v1/graphs/g/candidates", body)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Degraded") != "stale" {
		t.Fatalf("both replicas down: %d X-Degraded=%q, want 200 stale", rec.Code, rec.Header().Get("X-Degraded"))
	}
	if rec.Body.String() != want {
		t.Fatalf("stale body = %s, want %s", rec.Body.String(), want)
	}
}
