package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bear"
	"bear/server"
)

// writeTestGraph saves a small deterministic graph and returns its path.
func writeTestGraph(t *testing.T) string {
	t.Helper()
	g := bear.GenerateRMATPul(128, 600, 0.7, 9)
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := g.SaveEdgeList(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func preprocessTestIndex(t *testing.T) string {
	t.Helper()
	graphPath := writeTestGraph(t)
	idx := filepath.Join(t.TempDir(), "g.bear")
	if err := cmdPreprocess([]string{"-graph", graphPath, "-out", idx}); err != nil {
		t.Fatalf("cmdPreprocess: %v", err)
	}
	return idx
}

func TestCmdPreprocessAndQuery(t *testing.T) {
	idx := preprocessTestIndex(t)
	if err := cmdQuery([]string{"-index", idx, "-seed", "3", "-top", "5"}); err != nil {
		t.Fatalf("cmdQuery: %v", err)
	}
	if err := cmdQuery([]string{"-index", idx, "-seed", "3", "-ei"}); err != nil {
		t.Fatalf("cmdQuery -ei: %v", err)
	}
}

func TestCmdPPR(t *testing.T) {
	idx := preprocessTestIndex(t)
	if err := cmdPPR([]string{"-index", idx, "-seeds", "1, 2,3", "-top", "5"}); err != nil {
		t.Fatalf("cmdPPR: %v", err)
	}
	if err := cmdPPR([]string{"-index", idx, "-seeds", "bogus"}); err == nil {
		t.Fatal("expected bad-seed error")
	}
	if err := cmdPPR([]string{"-index", idx, "-seeds", "99999"}); err == nil {
		t.Fatal("expected out-of-range seed error")
	}
}

func TestCmdStats(t *testing.T) {
	idx := preprocessTestIndex(t)
	if err := cmdStats([]string{"-index", idx}); err != nil {
		t.Fatalf("cmdStats: %v", err)
	}
}

func TestCmdErrors(t *testing.T) {
	if err := cmdPreprocess([]string{}); err == nil {
		t.Fatal("expected missing-flags error")
	}
	if err := cmdPreprocess([]string{"-graph", "/nonexistent", "-out", "x"}); err == nil {
		t.Fatal("expected open error")
	}
	if err := cmdQuery([]string{"-index", "/nonexistent", "-seed", "0"}); err == nil {
		t.Fatal("expected load error")
	}
	if err := cmdQuery([]string{}); err == nil {
		t.Fatal("expected missing-flags error")
	}
	if err := cmdStats([]string{}); err == nil {
		t.Fatal("expected missing-flags error")
	}
	if err := cmdPPR([]string{}); err == nil {
		t.Fatal("expected missing-flags error")
	}
}

func TestCmdPreprocessApproxAndVariants(t *testing.T) {
	graphPath := writeTestGraph(t)
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-graph", graphPath, "-out", filepath.Join(dir, "a.bear"), "-drop", "0.001"},
		{"-graph", graphPath, "-out", filepath.Join(dir, "b.bear"), "-c", "0.15", "-k", "4"},
		{"-graph", graphPath, "-out", filepath.Join(dir, "c.bear"), "-laplacian"},
	} {
		if err := cmdPreprocess(args); err != nil {
			t.Fatalf("cmdPreprocess %v: %v", args, err)
		}
	}
}

func TestCmdPreprocessMatrixMarket(t *testing.T) {
	g := bear.GenerateRMATPul(64, 300, 0.7, 10)
	path := filepath.Join(t.TempDir(), "g.mtx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := g.SaveMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(buf.String()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	idx := filepath.Join(t.TempDir(), "g.bear")
	if err := cmdPreprocess([]string{"-graph", path, "-out", idx}); err != nil {
		t.Fatalf("cmdPreprocess on MatrixMarket input: %v", err)
	}
	if err := cmdQuery([]string{"-index", idx, "-seed", "0", "-top", "3"}); err != nil {
		t.Fatalf("cmdQuery: %v", err)
	}
}

func TestCmdVerify(t *testing.T) {
	graphPath := writeTestGraph(t)
	idx := filepath.Join(t.TempDir(), "g.bear")
	if err := cmdPreprocess([]string{"-graph", graphPath, "-out", idx}); err != nil {
		t.Fatalf("cmdPreprocess: %v", err)
	}
	// Exact index verifies against its own graph.
	if err := cmdVerify([]string{"-index", idx, "-graph", graphPath, "-seeds", "3"}); err != nil {
		t.Fatalf("cmdVerify: %v", err)
	}
	// A different graph fails verification.
	other := filepath.Join(t.TempDir(), "other.txt")
	g2 := bear.GenerateRMATPul(128, 600, 0.7, 99)
	f, err := os.Create(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.SaveEdgeList(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := cmdVerify([]string{"-index", idx, "-graph", other, "-seeds", "3"}); err == nil {
		t.Fatal("expected verification failure on mismatched graph")
	}
	// A coarsely approximate index fails a tight tolerance.
	approx := filepath.Join(t.TempDir(), "a.bear")
	if err := cmdPreprocess([]string{"-graph", graphPath, "-out", approx, "-drop", "0.05"}); err != nil {
		t.Fatalf("cmdPreprocess approx: %v", err)
	}
	if err := cmdVerify([]string{"-index", approx, "-graph", graphPath, "-seeds", "3", "-tol", "1e-10"}); err == nil {
		t.Fatal("expected verification failure on approximate index")
	}
	// Missing flags.
	if err := cmdVerify([]string{}); err == nil {
		t.Fatal("expected missing-flags error")
	}
}

func TestCmdCandidates(t *testing.T) {
	graphPath := writeTestGraph(t)
	out := filepath.Join(t.TempDir(), "cand.tsv")
	if err := cmdCandidates([]string{"-graph", graphPath, "-k", "3", "-out", out}); err != nil {
		t.Fatalf("cmdCandidates: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "# seed\tcandidate\tscore" {
		t.Fatalf("missing header, got %q", lines[0])
	}
	body := lines[1:]
	if len(body) == 0 {
		t.Fatal("no candidate rows written")
	}
	// Every node appears as a seed at most k times, and no row recommends
	// the seed to itself.
	counts := map[string]int{}
	for _, line := range body {
		fields := strings.Split(line, "\t")
		if len(fields) != 3 {
			t.Fatalf("row %q has %d fields", line, len(fields))
		}
		if fields[0] == fields[1] {
			t.Fatalf("row %q recommends the seed to itself", line)
		}
		counts[fields[0]]++
	}
	for seed, n := range counts {
		if n > 3 {
			t.Fatalf("seed %s has %d candidates, want <= 3", seed, n)
		}
	}

	// A seed list longer than one chunk, with repeats, is ranked in
	// parallel and written in list order: each seed's rows are its rows
	// from the sweep above.
	bySeed := map[string][]string{}
	for _, line := range body {
		seed, _, _ := strings.Cut(line, "\t")
		bySeed[seed] = append(bySeed[seed], line)
	}
	var list, want []string
	for i := 0; i < 600; i++ {
		seed := fmt.Sprint(i * 37 % 100)
		list = append(list, seed)
		want = append(want, bySeed[seed]...)
	}
	long := filepath.Join(t.TempDir(), "long.tsv")
	if err := cmdCandidates([]string{"-graph", graphPath, "-k", "3", "-seeds", strings.Join(list, ","), "-out", long}); err != nil {
		t.Fatalf("long seed list: %v", err)
	}
	data, err = os.ReadFile(long)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSpace(string(data)), "\n")[1:]
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("long seed list: %d rows differ from the sweep's rows in list order (%d)", len(got), len(want))
	}

	// Explicit seed list and error paths.
	if err := cmdCandidates([]string{"-graph", graphPath, "-seeds", "0, 5", "-out", filepath.Join(t.TempDir(), "x.tsv")}); err != nil {
		t.Fatalf("explicit seeds: %v", err)
	}
	if err := cmdCandidates([]string{"-graph", graphPath, "-seeds", "bogus"}); err == nil {
		t.Fatal("expected bad-seed error")
	}
	if err := cmdCandidates([]string{"-graph", graphPath, "-seeds", "99999"}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if err := cmdCandidates([]string{"-graph", graphPath, "-k", "0"}); err == nil {
		t.Fatal("expected bad-k error")
	}
	if err := cmdCandidates([]string{}); err == nil {
		t.Fatal("expected missing-graph error")
	}
}

// TestCmdCandidatesMatchesServer: the offline precompute prints exactly
// the candidates and scores a bearserve /candidates request answers on the
// same graph, since both run Dynamic.QueryCandidatesCtx.
func TestCmdCandidatesMatchesServer(t *testing.T) {
	graphPath := writeTestGraph(t)
	out := filepath.Join(t.TempDir(), "cand.tsv")
	if err := cmdCandidates([]string{"-graph", graphPath, "-k", "4", "-out", out}); err != nil {
		t.Fatalf("cmdCandidates: %v", err)
	}
	offline, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadGraph(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	h := server.New().Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("PUT", "/v1/graphs/g", bytes.NewReader(data)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("PUT: status %d body %s", rec.Code, rec.Body.String())
	}
	seeds := make([]int, g.N())
	for i := range seeds {
		seeds[i] = i
	}
	body, _ := json.Marshal(map[string]interface{}{"seeds": seeds, "k": 4})
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/graphs/g/candidates", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /candidates: status %d body %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Results []server.CandidateSeedResult `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var online strings.Builder
	online.WriteString("# seed\tcandidate\tscore\n")
	for _, slot := range resp.Results {
		for _, c := range slot.Candidates {
			fmt.Fprintf(&online, "%d\t%d\t%.8g\n", slot.Seed, c.Node, c.Score)
		}
	}
	if string(offline) != online.String() {
		t.Fatalf("offline candidates differ from /candidates:\noffline:\n%s\nonline:\n%s", offline, online.String())
	}
}
