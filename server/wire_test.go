package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"bear/internal/graph/gen"
	"bear/internal/wire"
)

// everyNameChar is a graph name made of every character validateName
// allows.
const everyNameChar = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_."

// rankedKeys are the keys each ranked endpoint's body carries besides an
// optional fallback (topk) and trace (?trace=1).
var rankedKeys = map[string][]string{
	"query":      {"graph", "results", "seed"},
	"pagerank":   {"graph", "results"},
	"ppr":        {"graph", "results"},
	"topk":       {"graph", "k", "results", "seed"},
	"batch":      {"graph", "results"},
	"candidates": {"graph", "k", "results"},
}

// legacyBody is what the handler for endpoint wrote before the wire
// appender: encoding/json's decode of body, rebuilt as the handler's
// response map and encoded with json.NewEncoder. It fails the test when
// the body's keys are not the endpoint's.
func legacyBody(t *testing.T, endpoint string, body []byte, traced bool) []byte {
	t.Helper()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("%s: decoding %s: %v", endpoint, body, err)
	}
	want := slices.Clone(rankedKeys[endpoint])
	if _, ok := raw["fallback"]; ok && endpoint == "topk" {
		want = append(want, "fallback")
	}
	if traced {
		want = append(want, "trace")
	}
	var keys []string
	for key := range raw {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	slices.Sort(want)
	if !slices.Equal(keys, want) {
		t.Fatalf("%s: body keys %v, want %v", endpoint, keys, want)
	}
	m := make(map[string]interface{}, len(raw))
	for key, v := range raw {
		var val interface{}
		switch key {
		case "graph", "fallback":
			val = new(string)
		case "seed", "k":
			val = new(int)
		case "trace":
			val = new([]TraceSpan)
		case "results":
			switch endpoint {
			case "batch":
				val = new([]BatchSeedResult)
			case "candidates":
				val = new([]CandidateSeedResult)
			default:
				val = new([]ScoredNode)
			}
		}
		if err := json.Unmarshal(v, val); err != nil {
			t.Fatalf("%s: decoding %s: %v", endpoint, key, err)
		}
		m[key] = val
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRankedBodiesMatchEncodingJSON: every ranked endpoint's body is
// byte for byte what encoding/json encodes for the same document, on the
// shared fixtures under the ranked option sets — cache miss and hit,
// effective importance, refinement, ?trace=1, a topk fallback, and a
// graph name using every character a name may hold.
func TestRankedBodiesMatchEncodingJSON(t *testing.T) {
	fallbacks := 0
	for gname, g := range gen.Fixtures(5) {
		for oname, opts := range rankedOptionSets {
			t.Run(gname+"/"+oname, func(t *testing.T) {
				s := New()
				if err := s.Add(everyNameChar, g, opts); err != nil {
					t.Fatalf("Add: %v", err)
				}
				h := s.Handler()
				n := g.N()
				base := "/v1/graphs/" + everyNameChar
				check := func(method, path, body string, wantCache string) {
					t.Helper()
					endpoint := path[len(base)+1:]
					if i := strings.IndexByte(endpoint, '?'); i >= 0 {
						endpoint = endpoint[:i]
					}
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
					if rec.Code != http.StatusOK {
						t.Fatalf("%s %s: status %d body %s", method, path, rec.Code, rec.Body.String())
					}
					if wantCache != "" && rec.Header().Get("X-Cache") != wantCache {
						t.Fatalf("%s %s: X-Cache %q, want %q", method, path, rec.Header().Get("X-Cache"), wantCache)
					}
					traced := strings.Contains(path, "trace=1")
					if want := legacyBody(t, endpoint, rec.Body.Bytes(), traced); !bytes.Equal(rec.Body.Bytes(), want) {
						t.Fatalf("%s %s:\nserved        %s\nencoding/json %s", method, path, rec.Body.Bytes(), want)
					}
					if endpoint == "topk" && strings.Contains(rec.Body.String(), `"fallback"`) {
						fallbacks++
					}
				}
				pass := func(pending bool) {
					seen := map[string]bool{}
					for _, seed := range []int{0, n / 2, n - 1} {
						for _, top := range []int{1, 10, n} {
							q := fmt.Sprintf("%s/query?seed=%d&top=%d", base, seed, top)
							// The cache key holds top clamped to n.
							if key := fmt.Sprint(seed, min(top, n)); !seen[key] {
								seen[key] = true
								check("GET", q, "", "miss")
							}
							check("GET", q, "", "hit")
							check("GET", q+"&trace=1", "", "")
							tk := fmt.Sprintf("%s/topk?seed=%d&k=%d", base, seed, top)
							check("GET", tk, "", "")
							check("GET", tk+"&trace=1", "", "hit")
							if !pending {
								check("GET", q+"&ei=1", "", "")
								check("GET", q+"&refine=1e-12", "", "")
							}
						}
					}
					check("GET", base+"/pagerank?top=5", "", "")
					check("GET", base+"/pagerank?top=5&trace=1", "", "hit")
					ppr := fmt.Sprintf(`{"seeds":{"0":1,"%d":0.5},"top":7}`, n-1)
					check("POST", base+"/ppr", ppr, "")
					check("POST", base+"/ppr?trace=1", ppr, "hit")
					// A tiny seed weight scales every score below 1e-6, where
					// encoding/json switches to exponent form.
					check("POST", base+"/ppr", fmt.Sprintf(`{"seeds":{"%d":3e-7},"top":%d}`, n/2, n), "")
					batch := fmt.Sprintf(`{"seeds":[0,%d,%d,0],"top":9}`, n/2, n-1)
					check("POST", base+"/batch", batch, "")
					check("POST", base+"/batch?trace=1", batch, "hit")
					cands := fmt.Sprintf(`{"seeds":[%d,0],"k":4}`, n-1)
					check("POST", base+"/candidates", cands, "")
					check("POST", base+"/candidates?trace=1", cands, "hit")
				}
				pass(false)
				if n > 1 {
					e, _ := s.lookup(everyNameChar)
					if err := e.dyn.AddEdge(n-1, 0, 1.5); err != nil {
						t.Fatalf("AddEdge: %v", err)
					}
					pass(true)
				}
			})
		}
	}
	if fallbacks == 0 {
		t.Error("no /topk body carried a fallback field")
	}
}

// TestEncodeFailureAnswers500: a body encoding/json rejects — or the wire
// appender rejects, on the same non-finite scores — answers 500 with a
// JSON error instead of 200 with an empty body.
func TestEncodeFailureAnswers500(t *testing.T) {
	for _, score := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		list := []ScoredNode{{Node: 1, Score: 0.5}, {Node: 2, Score: score}}
		for name, write := range map[string]func(http.ResponseWriter){
			"writeJSON": func(w http.ResponseWriter) {
				writeJSON(w, http.StatusOK, map[string]interface{}{"graph": "g", "results": list})
			},
			"writeRanked": func(w http.ResponseWriter) {
				writeRanked(w, wire.Doc{Kind: wire.KindQuery, Graph: "g", Results: list}, nil, false)
			},
			"writeRanked batch": func(w http.ResponseWriter) {
				writeRanked(w, wire.Doc{Kind: wire.KindBatch, Graph: "g",
					Batch: []BatchSeedResult{{Seed: 1, Cache: "miss", Results: list}}}, nil, false)
			},
		} {
			rec := httptest.NewRecorder()
			write(rec)
			var body struct {
				Error string `json:"error"`
			}
			if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &body) != nil ||
				!strings.Contains(body.Error, "unsupported value") {
				t.Fatalf("%s, score %v: status %d body %q, want 500 with a JSON error", name, score, rec.Code, rec.Body.String())
			}
		}
	}
	// A finite body still answers the caller's status.
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, map[string]string{"ok": "yes"})
	if rec.Code != http.StatusCreated || rec.Body.String() != "{\"ok\":\"yes\"}\n" {
		t.Fatalf("finite body: status %d body %q", rec.Code, rec.Body.String())
	}
}
