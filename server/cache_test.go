package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bear"
)

// doJSONCache is doJSON plus the X-Cache response header.
func doJSONCache(t *testing.T, method, url, body string, wantStatus int) (map[string]interface{}, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d (body %v)", method, url, resp.StatusCode, wantStatus, out)
	}
	return out, resp.Header.Get("X-Cache")
}

func TestQueryCacheHitMissAndInvalidation(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)
	q := base + "/g/query?seed=3&top=5"

	first, st := doJSONCache(t, "GET", q, "", http.StatusOK)
	if st != "miss" {
		t.Fatalf("first query X-Cache = %q, want miss", st)
	}
	second, st := doJSONCache(t, "GET", q, "", http.StatusOK)
	if st != "hit" {
		t.Fatalf("repeat query X-Cache = %q, want hit", st)
	}
	if fmt.Sprint(first["results"]) != fmt.Sprint(second["results"]) {
		t.Fatalf("cached results differ:\n%v\n%v", first["results"], second["results"])
	}
	// A different top is a different key.
	if _, st := doJSONCache(t, "GET", base+"/g/query?seed=3&top=7", "", http.StatusOK); st != "miss" {
		t.Fatalf("different top X-Cache = %q, want miss", st)
	}
	// PageRank and PPR cache too.
	for _, c := range []struct{ method, url, body string }{
		{"GET", base + "/g/pagerank?top=5", ""},
		{"POST", base + "/g/ppr", `{"seeds":{"3":0.5,"9":0.5},"top":5}`},
	} {
		if _, st := doJSONCache(t, c.method, c.url, c.body, http.StatusOK); st != "miss" {
			t.Fatalf("%s first X-Cache = %q, want miss", c.url, st)
		}
		if _, st := doJSONCache(t, c.method, c.url, c.body, http.StatusOK); st != "hit" {
			t.Fatalf("%s repeat X-Cache = %q, want hit", c.url, st)
		}
	}
	// PPR key must not depend on JSON seed order.
	if _, st := doJSONCache(t, "POST", base+"/g/ppr", `{"seeds":{"9":0.5,"3":0.5},"top":5}`, http.StatusOK); st != "hit" {
		t.Fatalf("reordered ppr seeds X-Cache = %q, want hit", st)
	}

	// An accepted update bumps the epoch: every old entry is unreachable.
	doJSON(t, "POST", base+"/g/edges", `{"op":"add","u":3,"v":40,"w":5}`, http.StatusOK)
	post, st := doJSONCache(t, "GET", q, "", http.StatusOK)
	if st != "miss" {
		t.Fatalf("post-update X-Cache = %q, want miss", st)
	}
	if fmt.Sprint(post["results"]) == fmt.Sprint(first["results"]) {
		t.Fatal("post-update results identical to pre-update results; stale vector served")
	}
	if _, st := doJSONCache(t, "GET", q, "", http.StatusOK); st != "hit" {
		t.Fatalf("post-update repeat X-Cache = %q, want hit", st)
	}
}

func TestCacheDisabledStillServes(t *testing.T) {
	s := New()
	s.CacheMaxBytes = -1
	ts := newHTTPServer(t, s)
	base := ts + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)
	for i := 0; i < 2; i++ {
		if _, st := doJSONCache(t, "GET", base+"/g/query?seed=1", "", http.StatusOK); st != "miss" {
			t.Fatalf("disabled cache X-Cache = %q, want miss", st)
		}
	}
}

// TestCacheCountersInMetrics: the registry size and the result-cache
// counters are served on /metrics, and /metrics is the only server-wide
// stats view (GET /v1/stats is not routed).
func TestCacheCountersInMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)
	doJSON(t, "GET", base+"/g/query?seed=1", "", http.StatusOK)
	doJSON(t, "GET", base+"/g/query?seed=1", "", http.StatusOK)
	body := scrape(t, ts.URL)
	if got := metricValue(t, body, "bear_graphs"); got != 1 {
		t.Fatalf("bear_graphs = %v, want 1", got)
	}
	if hits, misses := metricValue(t, body, "bear_cache_hits_total"), metricValue(t, body, "bear_cache_misses_total"); hits < 1 || misses < 1 {
		t.Fatalf("cache hits = %v, misses = %v; want both >= 1", hits, misses)
	}
	if entries, bytes := metricValue(t, body, "bear_cache_entries"), metricValue(t, body, "bear_cache_bytes"); entries < 1 || bytes <= 0 {
		t.Fatalf("cache entries = %v, bytes = %v", entries, bytes)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/stats: status %d, want 404 (the endpoint was removed)", resp.StatusCode)
	}
}

// TestCoalescedQueriesShareOneSolve drives cachedSolve directly with a
// gated solver so the coalesced path is deterministic: N concurrent
// identical requests must produce exactly one solve, one "miss", and N-1
// "coalesced".
func TestCoalescedQueriesShareOneSolve(t *testing.T) {
	s, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)
	e, ok := s.lookup("g")
	if !ok {
		t.Fatal("graph not registered")
	}

	const waiters = 6
	release := make(chan struct{})
	started := make(chan struct{})
	var solves, misses, coalesced int
	var mu sync.Mutex
	var wg sync.WaitGroup

	solve := func(first bool) func(context.Context) (*answer, error) {
		return func(context.Context) (*answer, error) {
			if first {
				close(started)
				<-release
			}
			mu.Lock()
			solves++
			mu.Unlock()
			scores, err := e.dyn.Query(5)
			return &answer{results: topResults(scores, 10)}, err
		}
	}
	hash := e.hasher("query").Int(5).Byte(0).Int(10).Sum()
	record := func(status string) {
		mu.Lock()
		defer mu.Unlock()
		switch status {
		case "miss":
			misses++
		case "coalesced":
			coalesced++
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, status, err := s.cachedSolve(context.Background(), e, hash, solve(true))
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		record(status)
	}()
	<-started
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, status, err := s.cachedSolve(context.Background(), e, hash, solve(false))
			if err != nil {
				t.Errorf("waiter: %v", err)
			}
			record(status)
		}()
	}
	for s.flight.Coalesced() < waiters {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if solves != 1 {
		t.Fatalf("solve ran %d times, want 1", solves)
	}
	if misses != 1 || coalesced != waiters {
		t.Fatalf("miss/coalesced = %d/%d, want 1/%d", misses, coalesced, waiters)
	}
	// The flight's result was cached: the next request is a plain hit.
	if _, status, _ := s.cachedSolve(context.Background(), e, hash, solve(false)); status != "hit" {
		t.Fatalf("follow-up status = %q, want hit", status)
	}
}

// TestBatchEndpointMatchesSingleQueries checks each batch slot against the
// full-vector reference (Query + TopK, bit for bit), then that batch and
// single-seed requests share cache entries both ways. Both endpoints run
// the same top-k solve on a miss, so comparing them with each other would
// prove nothing.
func TestBatchEndpointMatchesSingleQueries(t *testing.T) {
	s, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)
	e, _ := s.lookup("g")

	seeds := []int{0, 5, 17, 40, 63, 5} // duplicate included
	body := `{"seeds":[0,5,17,40,63,5],"top":5}`
	out, st := doJSONCache(t, "POST", base+"/g/batch", body, http.StatusOK)
	if st != "miss" {
		t.Fatalf("first batch X-Cache = %q, want miss", st)
	}
	results := out["results"].([]interface{})
	if len(results) != len(seeds) {
		t.Fatalf("batch returned %d results for %d seeds", len(results), len(seeds))
	}
	for i, raw := range results {
		slot := raw.(map[string]interface{})
		if int(slot["seed"].(float64)) != seeds[i] {
			t.Fatalf("slot %d seed = %v, want %d", i, slot["seed"], seeds[i])
		}
		ref, err := e.dyn.Query(seeds[i])
		if err != nil {
			t.Fatal(err)
		}
		checkRanked(t, fmt.Sprintf("batch seed %d", seeds[i]), slot["results"], bear.TopK(ref, 5), ref)
		single, st := doJSONCache(t, "GET", fmt.Sprintf("%s/g/query?seed=%d&top=5", base, seeds[i]), "", http.StatusOK)
		if st != "hit" {
			t.Fatalf("seed %d: single query after batch X-Cache = %q, want hit", seeds[i], st)
		}
		checkRanked(t, fmt.Sprintf("single seed %d", seeds[i]), single["results"], bear.TopK(ref, 5), ref)
	}
	// A repeat batch is all hits.
	out2, st := doJSONCache(t, "POST", base+"/g/batch", body, http.StatusOK)
	if st != "hit" {
		t.Fatalf("repeat batch X-Cache = %q, want hit", st)
	}
	for _, raw := range out2["results"].([]interface{}) {
		if c := raw.(map[string]interface{})["cache"]; c != "hit" {
			t.Fatalf("repeat batch slot cache = %v, want hit", c)
		}
	}
	// And a batch hits entries a single query wrote.
	doJSON(t, "GET", base+"/g/query?seed=9&top=5", "", http.StatusOK)
	out3, _ := doJSONCache(t, "POST", base+"/g/batch", `{"seeds":[9],"top":5}`, http.StatusOK)
	if c := out3["results"].([]interface{})[0].(map[string]interface{})["cache"]; c != "hit" {
		t.Fatalf("batch after single query slot cache = %v, want hit", c)
	}
}

func TestBatchEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)

	doJSON(t, "POST", base+"/g/batch", `{"seeds":[]}`, http.StatusBadRequest)
	doJSON(t, "POST", base+"/g/batch", `{"seeds":[999999]}`, http.StatusBadRequest)
	doJSON(t, "POST", base+"/g/batch", `not json`, http.StatusBadRequest)
	doJSON(t, "POST", base+"/missing/batch", `{"seeds":[1]}`, http.StatusNotFound)
	big, _ := json.Marshal(map[string]interface{}{"seeds": make([]int, maxBatchSeeds+1)})
	doJSON(t, "POST", base+"/g/batch", string(big), http.StatusBadRequest)
}

// TestBatchScoresFinite sanity-checks the scores the batch endpoint
// reports, not just their agreement with the single path.
func TestBatchScoresFinite(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)
	out := doJSON(t, "POST", base+"/g/batch", `{"seeds":[2,3],"top":3}`, http.StatusOK)
	for _, raw := range out["results"].([]interface{}) {
		slot := raw.(map[string]interface{})
		rs := slot["results"].([]interface{})
		if len(rs) != 3 {
			t.Fatalf("slot results = %v", rs)
		}
		top := rs[0].(map[string]interface{})
		if top["node"].(float64) != slot["seed"].(float64) {
			t.Fatalf("seed should rank first: %v", slot)
		}
		for _, r := range rs {
			score := r.(map[string]interface{})["score"].(float64)
			if math.IsNaN(score) || math.IsInf(score, 0) || score <= 0 {
				t.Fatalf("bad score %v", score)
			}
		}
	}
}

// newHTTPServer is newTestServer for a caller-constructed Server.
func newHTTPServer(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestCachedAnswerBytesIndependentOfN pins what a cache entry holds: the
// ranked answer only, never the score vector it was ranked from. Each
// read endpoint must therefore grow the cache by the same number of bytes
// on a 72-node graph and on a 2,400-node one.
func TestCachedAnswerBytesIndependentOfN(t *testing.T) {
	var large bytes.Buffer
	g := bear.GenerateCavemanHubs(bear.CavemanHubsConfig{
		Communities: 200, Size: 12, PIntra: 0.4, Hubs: 20, HubDeg: 10, Seed: 1,
	})
	if err := g.SaveEdgeList(&large); err != nil {
		t.Fatal(err)
	}
	reqs := []struct{ method, path, body string }{
		{"GET", "/query?seed=3&top=5", ""},
		{"GET", "/topk?seed=3&k=5", ""},
		{"GET", "/pagerank?top=5", ""},
		{"POST", "/ppr", `{"seeds":{"3":1,"9":2},"top":5}`},
		{"POST", "/batch", `{"seeds":[4,5],"top":5}`},
		{"POST", "/candidates", `{"seeds":[6,7],"k":5}`},
	}
	var grown [2][]int64
	for i, body := range []string{edgeListBody(), large.String()} {
		_, ts := newTestServer(t)
		base := ts.URL + "/v1/graphs/g"
		doJSON(t, "PUT", base, body, http.StatusCreated)
		prev := int64(metricValue(t, scrape(t, ts.URL), "bear_cache_bytes"))
		for _, r := range reqs {
			doJSON(t, r.method, base+r.path, r.body, http.StatusOK)
			now := int64(metricValue(t, scrape(t, ts.URL), "bear_cache_bytes"))
			grown[i] = append(grown[i], now-prev)
			prev = now
		}
	}
	for j, r := range reqs {
		if grown[0][j] != grown[1][j] {
			t.Errorf("%s %s: cache grew %d bytes at n=72 but %d at n=2400; an entry must not scale with the graph",
				r.method, r.path, grown[0][j], grown[1][j])
		}
	}
}

// TestPooledMissesConcurrent drives every pooled miss path (query, ppr,
// pagerank, batch, candidates) from several goroutines at once with the
// cache off, so each request solves into borrowed score vectors, and
// checks every answer against the one the same request got when run
// alone: a vector shared by two solves would corrupt one of them.
func TestPooledMissesConcurrent(t *testing.T) {
	s := New()
	s.CacheMaxBytes = -1
	base := newHTTPServer(t, s) + "/v1/graphs/g"
	doJSON(t, "PUT", base, edgeListBody(), http.StatusCreated)
	type request struct{ method, url, body string }
	reqs := []request{{"GET", base + "/pagerank?top=5", ""}}
	for seed := 0; seed < 12; seed++ {
		reqs = append(reqs,
			request{"GET", fmt.Sprintf("%s/query?seed=%d&top=5", base, seed), ""},
			request{"POST", base + "/ppr", fmt.Sprintf(`{"seeds":{"%d":1,"%d":2},"top":5}`, seed, seed+20)},
			request{"POST", base + "/batch", fmt.Sprintf(`{"seeds":[%d,%d,%d],"top":5}`, seed, seed+30, seed+50)},
			request{"POST", base + "/candidates", fmt.Sprintf(`{"seeds":[%d,%d],"k":4}`, seed, seed+40)},
		)
	}
	answer := func(r request) (string, error) {
		req, err := http.NewRequest(r.method, r.url, strings.NewReader(r.body))
		if err != nil {
			return "", err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s %s: status %d: %s", r.method, r.url, resp.StatusCode, b)
		}
		return string(b), err
	}
	want := make([]string, len(reqs))
	for i, r := range reqs {
		var err error
		if want[i], err = answer(r); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range reqs {
				i := (k + 7*w) % len(reqs)
				got, err := answer(reqs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[i] {
					t.Errorf("%s %s %s under concurrency:\n got %s\nwant %s", reqs[i].method, reqs[i].url, reqs[i].body, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
