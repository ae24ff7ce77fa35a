package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bear/internal/wire"
	"bear/server"
)

// sameNodes reports whether two ranked lists are equal node for node and
// bit for bit, nil and empty kept apart.
func sameNodes(a, b []server.ScoredNode) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// TestClientRankedReadsParseWithoutFallback drives the eight ranked
// methods against a real server and checks each served body: the wire
// parser took it (no encoding/json fallback ran), and the method returned
// exactly what encoding/json decodes from it, scores bit for bit.
func TestClientRankedReadsParseWithoutFallback(t *testing.T) {
	s := server.New()
	var mu sync.Mutex
	var last []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, r)
		mu.Lock()
		last = rec.Body.Bytes()
		mu.Unlock()
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(ts.Close)
	c := New(ts.URL)
	ctx := context.Background()
	if _, err := c.Upload(ctx, "g", graphBody(t), UploadOptions{DropTol: 1e-4}); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	body := func() []byte {
		mu.Lock()
		defer mu.Unlock()
		return last
	}
	// ranked checks one ranked-list answer against its served body.
	ranked := func(method string, got []server.ScoredNode, err error) {
		t.Helper()
		b := body()
		var parsed wire.Ranked
		if !parsed.Parse(b) {
			t.Fatalf("%s: the parser declined the served body %s", method, b)
		}
		var ref wire.Ranked
		if derr := json.NewDecoder(bytes.NewReader(b)).Decode(&ref); err != nil || derr != nil || len(got) == 0 ||
			!sameNodes(got, ref.Results) || !sameNodes(parsed.Results, ref.Results) {
			t.Fatalf("%s: returned %v, %v; encoding/json decodes %v, %v", method, got, err, ref.Results, derr)
		}
	}

	for _, seed := range []int{0, 3, 49} {
		res, err := c.Query(ctx, "g", seed, 10)
		ranked("Query", res, err)
		res, err = c.QueryRefined(ctx, "g", seed, 7, 1e-10)
		ranked("QueryRefined", res, err)
		res, err = c.QueryEffectiveImportance(ctx, "g", seed, 5)
		ranked("QueryEffectiveImportance", res, err)
		res, pruned, err := c.TopK(ctx, "g", seed, 6)
		ranked("TopK", res, err)
		if pruned {
			t.Fatal("TopK: pruned from a current server")
		}
	}
	res, err := c.PageRank(ctx, "g", 8)
	ranked("PageRank", res, err)
	res, err = c.PPR(ctx, "g", map[int]float64{1: 0.5, 20: 1.5}, 9)
	ranked("PPR", res, err)

	seeds := []int{0, 3, 49, 3, 12}
	for pass := 0; pass < 2; pass++ { // misses, then hits
		batch, err := c.QueryBatch(ctx, "g", seeds, 10)
		b := body()
		var parsed, ref wire.Batch
		derr := json.NewDecoder(bytes.NewReader(b)).Decode(&ref)
		if !parsed.Parse(b) || err != nil || derr != nil || len(batch) != len(seeds) || len(ref.Results) != len(batch) {
			t.Fatalf("QueryBatch: parser took %s: %v; returned %v, %v; encoding/json %v", b, parsed.Parse(b), batch, err, derr)
		}
		for i := range batch {
			if batch[i].Seed != ref.Results[i].Seed || batch[i].Cache != ref.Results[i].Cache ||
				!sameNodes(batch[i].Results, ref.Results[i].Results) {
				t.Fatalf("QueryBatch slot %d: %+v, encoding/json %+v", i, batch[i], ref.Results[i])
			}
		}

		cands, err := c.Candidates(ctx, "g", seeds, 4)
		b = body()
		var cparsed, cref wire.Candidates
		derr = json.NewDecoder(bytes.NewReader(b)).Decode(&cref)
		if !cparsed.Parse(b) || err != nil || derr != nil || len(cands) != len(seeds) || len(cref.Results) != len(cands) {
			t.Fatalf("Candidates: parser took %s: %v; returned %v, %v; encoding/json %v", b, cparsed.Parse(b), cands, err, derr)
		}
		for i := range cands {
			if cands[i].Seed != cref.Results[i].Seed || cands[i].Cache != cref.Results[i].Cache ||
				!sameNodes(cands[i].Candidates, cref.Results[i].Candidates) {
				t.Fatalf("Candidates slot %d: %+v, encoding/json %+v", i, cands[i], cref.Results[i])
			}
		}
	}

	// QueryTraced reads the trace, so it decodes with encoding/json.
	res, spans, err := c.QueryTraced(ctx, "g", 7, 5)
	if err != nil || len(res) != 5 || len(spans) == 0 {
		t.Fatalf("QueryTraced: %v %v %v", res, spans, err)
	}
}

// TestClientParserFallbackKeepsOldResults serves one body per decline
// rule and checks that each client method still returns what the former
// encoding/json decode of that body returned: the same results bit for
// bit, or an error of the same kind.
func TestClientParserFallbackKeepsOldResults(t *testing.T) {
	const list = `[{"node":3,"score":0.25},{"node":1,"score":1e-7}]`
	cases := []struct {
		rule, method, body string
	}{
		{"escaped key", "query", `{"graph":"g","r\u0065sults":` + list + `,"seed":3}`},
		{"escaped string", "batch", `{"graph":"\u0067","results":[{"seed":3,"cache":"h\u0069t","results":` + list + `}]}`},
		{"case-variant key", "query", `{"graph":"g","Results":` + list + `,"seed":3}`},
		{"case-variant entry key", "query", `{"graph":"g","results":[{"NODE":3,"Score":0.25}],"seed":3}`},
		{"duplicate key", "query", `{"graph":"g","results":[{"node":9,"score":1}],"results":` + list + `}`},
		{"duplicate entry key", "query", `{"graph":"g","results":[{"node":9,"node":3,"score":0.25}]}`},
		{"unknown key", "query", `{"graph":"g","results":` + list + `,"seed":3,"extra":{"a":[1,2]}}`},
		{"unknown key pruned", "topk", `{"graph":"g","k":2,"pruned":true,"results":` + list + `,"seed":3}`},
		{"null results", "query", `{"graph":"g","results":null,"seed":3}`},
		{"null slot list", "batch", `{"graph":"g","results":[{"seed":3,"cache":"hit","results":null}]}`},
		{"trailing data", "query", `{"graph":"g","results":` + list + `,"seed":3}` + "\n" + `{"more":1}`},
		{"malformed trace", "query", `{"graph":"g","results":` + list + `,"seed":3,"trace":"soon"}`},
		{"score strconv rejects", "query", `{"graph":"g","results":[{"node":3,"score":1e999}],"seed":3}`},
		{"fractional node", "query", `{"graph":"g","results":[{"node":3.5,"score":0.25}],"seed":3}`},
		{"node beyond int64", "candidates", `{"graph":"g","k":1,"results":[{"seed":3,"cache":"miss","candidates":[{"node":18446744073709551616,"score":0.5}]}]}`},
		{"truncated", "batch", `{"graph":"g","results":[{"seed":3,"cache":"miss","results":` + list},
		{"empty", "query", ``},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			if (&wire.Ranked{}).Parse([]byte(tc.body)) || (&wire.Batch{}).Parse([]byte(tc.body)) ||
				(&wire.Candidates{}).Parse([]byte(tc.body)) {
				t.Fatalf("a parser accepted %s", tc.body)
			}
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprint(w, tc.body)
			}))
			defer ts.Close()
			c := New(ts.URL, WithRetries(0))
			ctx := context.Background()
			decode := func(v interface{}) error { return json.NewDecoder(strings.NewReader(tc.body)).Decode(v) }
			switch tc.method {
			case "query":
				got, err := c.Query(ctx, "g", 3, 2)
				var old struct {
					Results []server.ScoredNode `json:"results"`
				}
				sameOutcome(t, err, decode(&old))
				if !sameNodes(got, old.Results) {
					t.Fatalf("Query returned %v, encoding/json %v", got, old.Results)
				}
			case "topk":
				got, pruned, err := c.TopK(ctx, "g", 3, 2)
				var old struct {
					Results []server.ScoredNode `json:"results"`
					Pruned  bool                `json:"pruned"`
				}
				sameOutcome(t, err, decode(&old))
				if !sameNodes(got, old.Results) || pruned != old.Pruned || !pruned {
					t.Fatalf("TopK returned %v pruned=%v, encoding/json %v pruned=%v", got, pruned, old.Results, old.Pruned)
				}
			case "batch":
				got, err := c.QueryBatch(ctx, "g", []int{3}, 2)
				var old struct {
					Results []server.BatchSeedResult `json:"results"`
				}
				sameOutcome(t, err, decode(&old))
				if len(got) != len(old.Results) || (got == nil) != (old.Results == nil) {
					t.Fatalf("QueryBatch returned %v, encoding/json %v", got, old.Results)
				}
				for i := range got {
					if got[i].Seed != old.Results[i].Seed || got[i].Cache != old.Results[i].Cache ||
						!sameNodes(got[i].Results, old.Results[i].Results) {
						t.Fatalf("QueryBatch slot %d: %+v, encoding/json %+v", i, got[i], old.Results[i])
					}
				}
			case "candidates":
				got, err := c.Candidates(ctx, "g", []int{3}, 1)
				var old struct {
					Results []server.CandidateSeedResult `json:"results"`
				}
				sameOutcome(t, err, decode(&old))
				if len(got) != len(old.Results) || (got == nil) != (old.Results == nil) {
					t.Fatalf("Candidates returned %v, encoding/json %v", got, old.Results)
				}
				for i := range got {
					if got[i].Seed != old.Results[i].Seed || !sameNodes(got[i].Candidates, old.Results[i].Candidates) {
						t.Fatalf("Candidates slot %d: %+v, encoding/json %+v", i, got[i], old.Results[i])
					}
				}
			}
		})
	}
}

// sameOutcome asserts that two decodes failed alike: both succeeded, or
// both failed with the same kind of error at the same place. Messages may
// differ only in the target's Go type name.
func sameOutcome(t *testing.T, got, want error) {
	t.Helper()
	var gotType, wantType *json.UnmarshalTypeError
	var gotSyntax, wantSyntax *json.SyntaxError
	switch {
	case got == nil && want == nil:
	case got == nil || want == nil:
		t.Fatalf("error %v, encoding/json error %v", got, want)
	case errors.As(want, &wantType):
		if !errors.As(got, &gotType) || gotType.Value != wantType.Value || gotType.Offset != wantType.Offset ||
			gotType.Field != wantType.Field || gotType.Type != wantType.Type {
			t.Fatalf("error %v, encoding/json error %v", got, want)
		}
	case errors.As(want, &wantSyntax):
		if !errors.As(got, &gotSyntax) || gotSyntax.Offset != wantSyntax.Offset || gotSyntax.Error() != wantSyntax.Error() {
			t.Fatalf("error %v, encoding/json error %v", got, want)
		}
	default:
		if got.Error() != want.Error() {
			t.Fatalf("error %v, encoding/json error %v", got, want)
		}
	}
}

// TestClientRankedReadErrorKeepsDecoderResult: a body whose connection
// fails after a complete document still answers, as the streaming decode
// did; one that fails mid-document reports the failure.
func TestClientRankedReadErrorKeepsDecoderResult(t *testing.T) {
	full := `{"graph":"g","results":[{"node":3,"score":0.25}],"seed":3}`
	for _, tc := range []struct {
		name, body string
		ok         bool
	}{{"complete", full, true}, {"cut", full[:30], false}} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				// Promise more bytes than are sent, so the read fails after
				// the body.
				w.Header().Set("Content-Length", fmt.Sprint(len(tc.body)+10))
				fmt.Fprint(w, tc.body)
			}))
			defer ts.Close()
			c := New(ts.URL, WithRetries(0))
			got, err := c.Query(context.Background(), "g", 3, 1)
			if tc.ok && (err != nil || len(got) != 1 || got[0].Node != 3) {
				t.Fatalf("complete document then read error: %v, %v", got, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("cut document: no error, results %v", got)
			}
		})
	}
}
