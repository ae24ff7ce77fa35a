package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bear/internal/fault"
)

// TestChaosQueriesDuringRebuild hammers a graph with concurrent queries,
// edge updates, and overlapping background rebuilds. Every query must
// answer 200 with finite, seed-ranked scores — the rebuild swap may never
// surface a torn or empty state — and the pending set must drain once the
// dust settles. Run with -race to check the swap protocol's publication.
func TestChaosQueriesDuringRebuild(t *testing.T) {
	s, ts := newTestServer(t)
	s.RebuildThreshold = 0 // rebuilds driven explicitly below
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 128)

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seed := w * 7
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(fmt.Sprintf("%s/g/query?seed=%d&top=5", base, seed))
				if err != nil {
					errs <- err.Error()
					return
				}
				var out struct {
					Results []ScoredNode `json:"results"`
					Error   string       `json:"error"`
				}
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("query seed %d: status %d err %v body %q", seed, resp.StatusCode, err, out.Error)
					return
				}
				if len(out.Results) == 0 || out.Results[0].Node != seed {
					errs <- fmt.Sprintf("query seed %d: bad results %v", seed, out.Results)
					return
				}
				for _, r := range out.Results {
					if math.IsNaN(r.Score) || math.IsInf(r.Score, 0) || r.Score < 0 {
						errs <- fmt.Sprintf("query seed %d: invalid score %v", seed, r.Score)
						return
					}
				}
			}
		}(w)
	}

	// Updates and overlapping async rebuilds; 409/202 are both fine, torn
	// state is not.
	for i := 0; i < 10; i++ {
		body := fmt.Sprintf(`{"op":"add","u":%d,"v":%d}`, i%20, 40+i)
		doJSON(t, "POST", base+"/g/edges", body, http.StatusOK)
		resp, err := http.Post(base+"/g/rebuild?async=1", "application/json", nil)
		if err != nil {
			t.Fatalf("async rebuild: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async rebuild: status %d", resp.StatusCode)
		}
	}
	drainPending(t, base+"/g")
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// TestChaosCacheInvalidationRace checks the cache's one correctness
// obligation under concurrency: after an edge update is acknowledged, no
// request may ever be answered with a pre-update score vector. A single
// checker thread alternates drastic weight updates with verified queries
// while read-only workers keep the cache hot and another goroutine fires
// overlapping async rebuilds; the checker compares every HTTP answer
// against a fresh direct solve of the post-update state. Tolerance is
// 1e-9, not bit-identity, because a concurrent rebuild may swap the
// Woodbury-corrected state for a refactorized one mid-check — same graph,
// different floating-point path. Run with -race.
func TestChaosCacheInvalidationRace(t *testing.T) {
	s, ts := newTestServer(t)
	s.RebuildThreshold = 0 // rebuilds driven explicitly below
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)
	e, ok := s.lookup("g")
	if !ok {
		t.Fatal("graph not registered")
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 64)

	// Read-only workers: their only job is to keep cache entries and
	// in-flight solves alive so the checker races against a warm cache.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(fmt.Sprintf("%s/g/query?seed=%d&top=5", base, w*3))
				if err != nil {
					errs <- err.Error()
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("reader seed %d: status %d", w*3, resp.StatusCode)
					return
				}
			}
		}(w)
	}

	// Overlapping async rebuilds: they change no semantic state (they only
	// fold already-accepted updates), but each swap bumps the epoch and
	// must not resurrect older entries.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			resp, err := http.Post(base+"/g/rebuild?async=1", "application/json", nil)
			if err != nil {
				errs <- err.Error()
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs <- fmt.Sprintf("async rebuild: status %d", resp.StatusCode)
				return
			}
		}
	}()

	// The checker is the only goroutine that mutates the graph, so between
	// its update and its verification the semantic state is fixed.
	const checkSeed = 5
	for i := 0; i < 15; i++ {
		body := fmt.Sprintf(`{"op":"add","u":%d,"v":%d,"w":30}`, checkSeed, 30+i)
		doJSON(t, "POST", base+"/g/edges", body, http.StatusOK)
		expected, err := e.dyn.Query(checkSeed)
		if err != nil {
			t.Fatalf("round %d: direct solve: %v", i, err)
		}
		out := doJSON(t, "GET", fmt.Sprintf("%s/g/query?seed=%d&top=8", base, checkSeed), "", http.StatusOK)
		for _, raw := range out["results"].([]interface{}) {
			r := raw.(map[string]interface{})
			node := int(r["node"].(float64))
			got := r["score"].(float64)
			if math.Abs(got-expected[node]) > 1e-9 {
				t.Fatalf("round %d: stale score for node %d: served %v, post-update state says %v",
					i, node, got, expected[node])
			}
		}
	}
	close(stop)
	wg.Wait()
	drainPending(t, base+"/g")
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// TestLoadShedding fills the admission semaphore by hand and verifies the
// next request is shed with 503 + Retry-After while /healthz, which
// bypasses admission, still answers.
func TestLoadShedding(t *testing.T) {
	s, ts := newTestServer(t)
	s.MaxConcurrent = 1
	s.AcquireTimeout = 5 * time.Millisecond
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)

	// Occupy the only slot (the PUT above lazily initialized the
	// semaphore through the middleware).
	s.sem <- struct{}{}
	resp, err := http.Get(base + "/g/query?seed=0")
	if err != nil {
		t.Fatalf("shed request: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated server answered %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed response missing Retry-After header")
	}
	doJSON(t, "GET", ts.URL+"/healthz", "", http.StatusOK)
	<-s.sem // release
	doJSON(t, "GET", base+"/g/query?seed=0", "", http.StatusOK)
}

// TestQueryTimeout: with an impossible deadline every query reports 504,
// and removing it restores service — the deadline cancels work, it does
// not poison state.
func TestQueryTimeout(t *testing.T) {
	s, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)

	s.QueryTimeout = time.Nanosecond
	doJSON(t, "GET", base+"/g/query?seed=0", "", http.StatusGatewayTimeout)
	doJSON(t, "POST", base+"/g/ppr", `{"seeds":{"1":1}}`, http.StatusGatewayTimeout)
	s.QueryTimeout = 0
	doJSON(t, "GET", base+"/g/query?seed=0", "", http.StatusOK)
}

// TestPanicRecovery: a panicking handler yields a logged 500, not a
// dropped connection; http.ErrAbortHandler keeps its meaning.
func TestPanicRecovery(t *testing.T) {
	s := New()
	h := s.withRecovery(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic answered %d, want 500", rec.Code)
	}
	var out map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out["error"] == "" {
		t.Fatalf("panic response body %q", rec.Body.String())
	}

	abort := s.withRecovery(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Fatal("http.ErrAbortHandler was swallowed")
		}
	}()
	abort.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
}

// TestSnapshotRestoreBitIdentical saves the registry — pending Woodbury
// updates included — restores it into a fresh server, and requires every
// query response to match byte-for-byte.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	s, ts := newTestServer(t)
	s.RebuildThreshold = 0
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)
	doJSON(t, "POST", base+"/g/edges", `{"op":"add","u":0,"v":70}`, http.StatusOK)
	doJSON(t, "POST", base+"/g/edges", `{"op":"add","u":3,"v":71,"w":2.5}`, http.StatusOK)

	path := filepath.Join(t.TempDir(), "registry.snap")
	s.SnapshotPath = path
	out := doJSON(t, "POST", ts.URL+"/v1/snapshot", "", http.StatusOK)
	if int(out["graphs"].(float64)) != 1 {
		t.Fatalf("snapshot reported %v", out)
	}

	s2 := New()
	if err := s2.LoadSnapshot(path); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	for _, q := range []string{
		"/v1/graphs/g/query?seed=0&top=10",
		"/v1/graphs/g/query?seed=3&top=10",
		"/v1/graphs/g/pagerank?top=10",
	} {
		a := getBody(t, ts.URL+q)
		b := getBody(t, ts2.URL+q)
		if !bytes.Equal(a, b) {
			t.Fatalf("restored answer differs for %s:\n%s\nvs\n%s", q, a, b)
		}
	}
	// The restored server still has the pending updates and can fold them.
	stats := doJSON(t, "GET", ts2.URL+"/v1/graphs/g", "", http.StatusOK)
	if stats["pending_updates"].(float64) != 2 {
		t.Fatalf("restored pending = %v", stats["pending_updates"])
	}
	doJSON(t, "POST", ts2.URL+"/v1/graphs/g/rebuild", "", http.StatusOK)
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotCorruptionRejected: a snapshot with any byte flipped, or cut
// short at any point, must be refused on restore — the running registry is
// left untouched.
func TestSnapshotCorruptionRejected(t *testing.T) {
	s, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)
	doJSON(t, "POST", base+"/g/edges", `{"op":"add","u":0,"v":70}`, http.StatusOK)

	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	valid := buf.Bytes()

	s2 := New()
	if err := s2.ReadSnapshot(bytes.NewReader(valid)); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}

	step := 1 + len(valid)/97
	for off := 0; off < len(valid); off += step {
		fresh := New()
		if err := fresh.ReadSnapshot(bytes.NewReader(fault.Flip(valid, int64(off), 0))); err == nil {
			t.Fatalf("snapshot flip at offset %d of %d accepted", off, len(valid))
		}
		if len(fresh.graphs) != 0 {
			t.Fatalf("flip at offset %d left %d graphs registered", off, len(fresh.graphs))
		}
	}
	for cut := 0; cut < len(valid); cut += step {
		if err := New().ReadSnapshot(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("snapshot truncated to %d of %d bytes accepted", cut, len(valid))
		}
	}

	// A failed restore must not clobber an existing registry.
	before := len(s2.graphs)
	if err := s2.ReadSnapshot(bytes.NewReader(valid[:len(valid)/2])); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if len(s2.graphs) != before {
		t.Fatal("failed restore modified the registry")
	}
}

// TestSnapshotAtomicWrite: SaveSnapshot leaves no temp litter and a crash
// simulated by a pre-existing target file still ends with a valid file.
func TestSnapshotAtomicWrite(t *testing.T) {
	s, ts := newTestServer(t)
	doJSON(t, "PUT", ts.URL+"/v1/graphs/g", edgeListBody(), http.StatusCreated)

	dir := t.TempDir()
	path := filepath.Join(dir, "reg.snap")
	if err := os.WriteFile(path, []byte("stale garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshot(path); err != nil {
		t.Fatalf("SaveSnapshot over stale file: %v", err)
	}
	if err := New().LoadSnapshot(path); err != nil {
		t.Fatalf("snapshot written over stale file unreadable: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

// TestUploadWithFaultyBody: a body that dies mid-stream produces a clean
// 400, not a hung handler or a half-registered graph.
func TestUploadWithFaultyBody(t *testing.T) {
	_, ts := newTestServer(t)
	body := &fault.FlakyReader{R: strings.NewReader(edgeListBody()), N: 64}
	req, err := http.NewRequest("PUT", ts.URL+"/v1/graphs/g", body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		// Depending on timing the transport may surface the injected
		// error itself or deliver the server's 400.
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("flaky upload answered %d, want 400", resp.StatusCode)
		}
	}
	resp2, err := http.Get(ts.URL + "/v1/graphs/g")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("half-uploaded graph got registered (status %d)", resp2.StatusCode)
	}
}
