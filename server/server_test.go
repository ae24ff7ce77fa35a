package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bear"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func edgeListBody() string {
	g := bear.GenerateCavemanHubs(bear.CavemanHubsConfig{
		Communities: 6, Size: 12, PIntra: 0.4, Hubs: 3, HubDeg: 10, Seed: 1,
	})
	var buf bytes.Buffer
	if err := g.SaveEdgeList(&buf); err != nil {
		panic(err)
	}
	return buf.String()
}

func doJSON(t *testing.T, method, url, body string, wantStatus int) map[string]interface{} {
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
	return out
}

// drainPending folds every remaining update into a fresh preprocessing
// pass. Posting rebuilds until pending hits zero — rather than waiting
// passively — matters after concurrent update/rebuild churn: the last
// rebuild may have snapshotted the graph before the last update was
// accepted, in which case no amount of waiting drains the residue.
func drainPending(t *testing.T, statsURL string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		stats := doJSON(t, "GET", statsURL, "", http.StatusOK)
		if int(stats["pending_updates"].(float64)) == 0 && !stats["rebuilding"].(bool) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending never drained: %v", stats)
		}
		resp, err := http.Post(statsURL+"/rebuild?async=1", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		time.Sleep(5 * time.Millisecond)
	}
}

// waitForPending polls the stats endpoint until pending_updates reaches
// want (background rebuilds drain it asynchronously).
func waitForPending(t *testing.T, statsURL string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		stats := doJSON(t, "GET", statsURL, "", http.StatusOK)
		if int(stats["pending_updates"].(float64)) == want && !stats["rebuilding"].(bool) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending never reached %d: %v", want, stats)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	out := doJSON(t, "GET", ts.URL+"/healthz", "", http.StatusOK)
	if out["status"] != "ok" {
		t.Fatalf("healthz = %v", out)
	}
}

func TestGraphLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs"

	// Upload.
	info := doJSON(t, "PUT", base+"/social", edgeListBody(), http.StatusCreated)
	if info["name"] != "social" || info["nodes"].(float64) <= 0 {
		t.Fatalf("upload info %v", info)
	}

	// List and stats.
	list := doJSON(t, "GET", base, "", http.StatusOK)
	if graphs := list["graphs"].([]interface{}); len(graphs) != 1 {
		t.Fatalf("list = %v", list)
	}
	stats := doJSON(t, "GET", base+"/social", "", http.StatusOK)
	if stats["hubs"].(float64) <= 0 {
		t.Fatalf("stats = %v", stats)
	}

	// Query.
	q := doJSON(t, "GET", base+"/social/query?seed=3&top=5", "", http.StatusOK)
	results := q["results"].([]interface{})
	if len(results) != 5 {
		t.Fatalf("query returned %d results", len(results))
	}
	first := results[0].(map[string]interface{})
	if first["node"].(float64) != 3 {
		t.Fatalf("seed should rank first, got %v", first)
	}

	// PageRank.
	pr := doJSON(t, "GET", base+"/social/pagerank?top=3", "", http.StatusOK)
	if len(pr["results"].([]interface{})) != 3 {
		t.Fatalf("pagerank = %v", pr)
	}

	// PPR.
	ppr := doJSON(t, "POST", base+"/social/ppr", `{"seeds":{"1":0.5,"20":0.5},"top":4}`, http.StatusOK)
	if len(ppr["results"].([]interface{})) != 4 {
		t.Fatalf("ppr = %v", ppr)
	}

	// Delete.
	doJSON(t, "DELETE", base+"/social", "", http.StatusOK)
	doJSON(t, "GET", base+"/social", "", http.StatusNotFound)
}

func TestQueryMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs"
	body := edgeListBody()
	doJSON(t, "PUT", base+"/g", body, http.StatusCreated)

	g, err := bear.LoadEdgeList(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	p, err := bear.Preprocess(g, bear.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Query(7)
	if err != nil {
		t.Fatal(err)
	}
	out := doJSON(t, "GET", base+"/g/query?seed=7&top=1", "", http.StatusOK)
	first := out["results"].([]interface{})[0].(map[string]interface{})
	wantTop := bear.TopK(want, 1)[0]
	if int(first["node"].(float64)) != wantTop {
		t.Fatalf("server top node %v, library %d", first["node"], wantTop)
	}
	if diff := first["score"].(float64) - want[wantTop]; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("server score differs by %g", diff)
	}
}

func TestEdgeUpdatesAndRebuild(t *testing.T) {
	s, ts := newTestServer(t)
	s.RebuildThreshold = 2 // pending counts distinct touched nodes
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)

	// Add an edge; pending rises.
	out := doJSON(t, "POST", base+"/g/edges", `{"op":"add","u":0,"v":70}`, http.StatusOK)
	if out["pending"].(float64) != 1 || out["rebuilding"].(bool) {
		t.Fatalf("after add: %v", out)
	}
	// The query reflects the new edge.
	q := doJSON(t, "GET", base+"/g/query?seed=0&top=20", "", http.StatusOK)
	found := false
	for _, it := range q["results"].([]interface{}) {
		if it.(map[string]interface{})["node"].(float64) == 70 {
			found = true
		}
	}
	if !found {
		t.Fatal("node 70 missing from top results after adding edge 0->70")
	}

	// Removing from the same node keeps the dirty-node count at one.
	out = doJSON(t, "POST", base+"/g/edges", `{"op":"remove","u":0,"v":70}`, http.StatusOK)
	if out["pending"].(float64) != 1 || out["rebuilding"].(bool) {
		t.Fatalf("after remove on same node: %v", out)
	}
	// A second distinct node reaches the threshold: an automatic rebuild
	// starts in the background while the request returns immediately; the
	// pending count drains to zero once the swap lands.
	doJSON(t, "POST", base+"/g/edges", `{"op":"replace","u":5,"dst":[1,2],"weights":[1,1]}`, http.StatusOK)
	waitForPending(t, base+"/g", 0)

	// Manual rebuild endpoint.
	doJSON(t, "POST", base+"/g/edges", `{"op":"add","u":1,"v":60}`, http.StatusOK)
	doJSON(t, "POST", base+"/g/rebuild", "", http.StatusOK)
	stats := doJSON(t, "GET", base+"/g", "", http.StatusOK)
	if stats["pending_updates"].(float64) != 0 {
		t.Fatalf("pending after rebuild: %v", stats)
	}
}

// TestRebuildModes drives the ?mode= parameter end to end: explicit full
// and incremental rebuilds, the 409 refusal when incremental is
// disqualified, the auto fallback with its recorded reason, and the
// bear_rebuild_* series on /metrics.
func TestRebuildModes(t *testing.T) {
	s, ts := newTestServer(t)
	s.RebuildThreshold = 0 // rebuilds driven explicitly below
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)

	doJSON(t, "POST", base+"/g/rebuild?mode=bogus", "", http.StatusBadRequest)

	out := doJSON(t, "POST", base+"/g/rebuild?mode=full", "", http.StatusOK)
	if out["mode"] != "full" || out["requested"] != "full" {
		t.Fatalf("full rebuild response %v", out)
	}

	// The handler never learns node roles, so the test peeks at the engine
	// to aim updates: a spoke→hub edge qualifies for the incremental path,
	// a hub update disqualifies it.
	s.mu.RLock()
	e := s.graphs["g"]
	s.mu.RUnlock()
	p := e.dyn.Precomputed()
	spoke, hub := -1, -1
	for u := 0; u < p.N && (spoke < 0 || hub < 0); u++ {
		if p.IsHub(u) {
			if hub < 0 {
				hub = u
			}
		} else if spoke < 0 {
			spoke = u
		}
	}
	if spoke < 0 || hub < 0 {
		t.Fatalf("test graph lacks a spoke/hub pair (spoke=%d hub=%d)", spoke, hub)
	}

	doJSON(t, "POST", base+"/g/edges",
		fmt.Sprintf(`{"op":"add","u":%d,"v":%d,"weight":1.5}`, spoke, hub), http.StatusOK)
	out = doJSON(t, "POST", base+"/g/rebuild?mode=incremental", "", http.StatusOK)
	if out["mode"] != "incremental" || out["blocks_refactored"].(float64) < 1 {
		t.Fatalf("incremental rebuild response %v", out)
	}

	// Dirty a hub: explicit incremental is refused as a state conflict,
	// auto falls back to full and records why.
	doJSON(t, "POST", base+"/g/edges",
		fmt.Sprintf(`{"op":"add","u":%d,"v":%d,"weight":1.5}`, hub, spoke), http.StatusOK)
	doJSON(t, "POST", base+"/g/rebuild?mode=incremental", "", http.StatusConflict)
	out = doJSON(t, "POST", base+"/g/rebuild?mode=auto", "", http.StatusOK)
	if out["mode"] != "full" || out["fallback_reason"] != "hub_dirty" {
		t.Fatalf("auto rebuild after hub update: %v", out)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`bear_rebuild_mode_total{graph="g",mode="incremental"} 1`,
		`bear_rebuild_mode_total{graph="g",mode="full"} 2`,
		`bear_rebuild_fallback_total{graph="g",reason="hub_dirty"} 1`,
		`bear_rebuild_stage_seconds{graph="g",stage="schur_factor"}`,
		`bear_rebuild_blocks_refactored{graph="g"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestServerErrors(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)

	cases := []struct {
		method, url, body string
		want              int
	}{
		{"PUT", base + "/bad name!", "0 1\n", http.StatusBadRequest},
		{"PUT", base + "/g2", "not an edge list", http.StatusBadRequest},
		{"PUT", base + "/g3?c=2", "0 1\n", http.StatusBadRequest},
		{"PUT", base + "/g3?c=NaN", "0 1\n", http.StatusBadRequest},
		{"PUT", base + "/g3?drop=-1", "0 1\n", http.StatusBadRequest},
		{"PUT", base + "/g3?drop=NaN", "0 1\n", http.StatusBadRequest},
		{"PUT", base + "/g3?drop=+Inf", "0 1\n", http.StatusBadRequest},
		{"PUT", base + "/g3?laplacian=maybe", "0 1\n", http.StatusBadRequest},
		{"GET", base + "/missing", "", http.StatusNotFound},
		{"DELETE", base + "/missing", "", http.StatusNotFound},
		{"GET", base + "/g/query?seed=abc", "", http.StatusBadRequest},
		{"GET", base + "/g/query?seed=99999", "", http.StatusBadRequest},
		{"GET", base + "/g/query?seed=1&top=-2", "", http.StatusBadRequest},
		{"GET", base + "/missing/query?seed=1", "", http.StatusNotFound},
		{"POST", base + "/g/ppr", "{bad json", http.StatusBadRequest},
		{"POST", base + "/g/ppr", `{"seeds":{}}`, http.StatusBadRequest},
		{"POST", base + "/g/ppr", `{"seeds":{"99999":1}}`, http.StatusBadRequest},
		{"POST", base + "/g/ppr", `{"seeds":{"1":-1}}`, http.StatusBadRequest},
		{"POST", base + "/g/edges", `{"op":"teleport","u":0,"v":1}`, http.StatusBadRequest},
		{"POST", base + "/g/edges", `{"op":"remove","u":0,"v":71}`, http.StatusBadRequest},
		{"POST", base + "/missing/rebuild", "", http.StatusNotFound},
	}
	for _, c := range cases {
		doJSON(t, c.method, c.url, c.body, c.want)
	}
}

// TestUnknownGraphAnswers404 covers the one graph lookup: every route
// under /v1/graphs/{name} but the two uploads answers 404 with a JSON
// error naming the graph, before it reads its parameters or its body.
func TestUnknownGraphAnswers404(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)
	for _, c := range []struct{ method, path, body string }{
		{"GET", "", ""},
		{"DELETE", "", ""},
		{"GET", "/export", ""},
		{"GET", "/query", ""},
		{"GET", "/accuracy?k=0", ""},
		{"GET", "/pagerank?top=x", ""},
		{"POST", "/ppr", "not json"},
		{"POST", "/batch", "not json"},
		{"GET", "/topk", ""},
		{"POST", "/candidates", "not json"},
		{"POST", "/edges", "not json"},
		{"POST", "/rebuild?mode=sideways", ""},
	} {
		out := doJSON(t, c.method, base+"/missing"+c.path, c.body, http.StatusNotFound)
		if msg, _ := out["error"].(string); msg != `graph "missing" not found` {
			t.Errorf("%s /missing%s: error %q", c.method, c.path, msg)
		}
	}
}

func TestMatrixMarketUpload(t *testing.T) {
	_, ts := newTestServer(t)
	mm := "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 2 1\n2 3 1\n3 1 1\n"
	info := doJSON(t, "PUT", ts.URL+"/v1/graphs/mm", mm, http.StatusCreated)
	if info["nodes"].(float64) != 3 {
		t.Fatalf("MatrixMarket upload: %v", info)
	}
}

func TestConcurrentQueriesAndUpdates(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if w%4 == 0 {
					body := fmt.Sprintf(`{"op":"add","u":%d,"v":%d}`, (w*10+i)%70, (w+i*7)%70)
					resp, err := http.Post(base+"/g/edges", "application/json", strings.NewReader(body))
					if err != nil {
						errs <- err.Error()
						return
					}
					resp.Body.Close()
					continue
				}
				resp, err := http.Get(fmt.Sprintf("%s/g/query?seed=%d", base, (w*13+i)%70))
				if err != nil {
					errs <- err.Error()
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("query status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestConcurrentMixedTraffic hammers one graph with every kind of serving
// traffic at once — single-seed queries (including oversized top values
// that must be clamped), distribution queries, PageRank, and edge updates —
// so the race detector can observe the pooled-workspace query path and the
// Woodbury update path interleaving.
func TestConcurrentMixedTraffic(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)

	var wg sync.WaitGroup
	errs := make(chan string, 128)
	get := func(url string) {
		resp, err := http.Get(url)
		if err != nil {
			errs <- err.Error()
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			errs <- fmt.Sprintf("GET %s: status %d", url, resp.StatusCode)
		}
	}
	post := func(url, body string) {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			errs <- err.Error()
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			errs <- fmt.Sprintf("POST %s: status %d", url, resp.StatusCode)
		}
	}
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				switch w % 4 {
				case 0: // edge updates
					post(base+"/g/edges",
						fmt.Sprintf(`{"op":"add","u":%d,"v":%d,"weight":1}`, (w*11+i)%70, (w+i*5)%70))
				case 1: // queries with an oversized top: must clamp, not 400
					get(fmt.Sprintf("%s/g/query?seed=%d&top=999999", base, (w*13+i)%70))
				case 2: // personalized PageRank (distribution query path)
					post(base+"/g/ppr",
						fmt.Sprintf(`{"seeds":{"%d":1,"%d":2},"top":5}`, (w*7+i)%70, (w+i*3)%70))
				default: // uniform PageRank
					get(base + "/g/pagerank?top=10")
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestAddProgrammatic(t *testing.T) {
	s := New()
	g := bear.GenerateErdosRenyi(50, 200, 2)
	if err := s.Add("er", g, bear.Options{}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := s.Add("", g, bear.Options{}); err == nil {
		t.Fatal("expected name validation error")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	doJSON(t, "GET", ts.URL+"/v1/graphs/er", "", http.StatusOK)
}
