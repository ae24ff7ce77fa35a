package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"bear"
	"bear/internal/graph/gen"
)

// rankedOptionSets are the four index variants the serving contract is
// checked under.
var rankedOptionSets = map[string]bear.Options{
	"exact":     {},
	"approx":    {DropTol: 1e-6},
	"laplacian": {Laplacian: true},
	"mindeg":    {Ordering: "mindeg"},
}

// serveJSON runs one request through h and decodes its JSON body,
// failing unless it answers 200.
func serveJSON(t *testing.T, h http.Handler, method, url, body string) map[string]interface{} {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, url, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d body %s", method, url, rec.Code, rec.Body.String())
	}
	var out map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	return out
}

// checkRanked asserts that a response's ranked list is exactly ids with
// their scores in ref, under math.Float64bits: JSON carries each float64
// in its shortest exact form, so the bits survive the round trip.
func checkRanked(t *testing.T, what string, got interface{}, ids []int, ref []float64) {
	t.Helper()
	list := got.([]interface{})
	if len(list) != len(ids) {
		t.Fatalf("%s: %d results, reference has %d", what, len(list), len(ids))
	}
	for i, raw := range list {
		r := raw.(map[string]interface{})
		node, score := int(r["node"].(float64)), r["score"].(float64)
		if node != ids[i] || math.Float64bits(score) != math.Float64bits(ref[ids[i]]) {
			t.Fatalf("%s: rank %d is node %d score %v, reference node %d score %v",
				what, i, node, score, ids[i], ref[ids[i]])
		}
	}
}

// TestRankedReadsBitIdentical is the serving contract's differential
// test: every ranked endpoint — /query, /topk, /batch, /candidates and
// /ppr — answers a cache miss exactly as the full-vector reference does
// (Dynamic.Query or QueryDist, ranked with TopK or TopKCandidates), nodes,
// order and score bits. It runs on the eight shared fixtures under the
// four index variants, over hub, isolated and ordinary seeds, multi-seed
// PPR with hub seeds, zero weights or two isolated blocks, a candidates seed whose out-degree
// pushes the requested count past the no_threshold bound, and a second
// pass with pending updates.
func TestRankedReadsBitIdentical(t *testing.T) {
	noThreshold := 0
	defer func() {
		if noThreshold == 0 && !t.Failed() {
			t.Error("no fixture sent a candidates seed past the no_threshold bound")
		}
	}()
	for gname, g := range gen.Fixtures(5) {
		for oname, opts := range rankedOptionSets {
			t.Run(gname+"/"+oname, func(t *testing.T) {
				s := New()
				if err := s.Add("g", g, opts); err != nil {
					t.Fatalf("Add: %v", err)
				}
				h := s.Handler()
				e, _ := s.lookup("g")
				d := e.dyn
				p := d.Precomputed()
				n := g.N()
				base := "/v1/graphs/g"

				// Seeds: both ends and the middle, up to three hubs, and the
				// first seed of an isolated block.
				seeds := []int{0, n / 2, n - 1}
				hubs := 0
				for v := 0; v < n; v++ {
					if p.IsHub(v) && hubs < 3 {
						seeds = append(seeds, v)
						hubs++
					}
				}
				iso := isolatedSeeds(p, 2)
				if len(iso) > 0 {
					seeds = append(seeds, iso[0])
				}

				// The candidates seed with the most out-edges, and a k that
				// takes k + 1 + outdeg past the hubs plus its block (the
				// no_threshold bound, which binds unless the seed is
				// isolated or the bound reaches n).
				wide := 0
				for v := 0; v < n; v++ {
					if g.OutDegree(v) > g.OutDegree(wide) {
						wide = v
					}
				}
				known := p.N2
				if bi := p.BlockOf(wide); bi >= 0 {
					known += p.BlockOffsets[bi+1] - p.BlockOffsets[bi]
				}
				wideK := max(1, min(known-g.OutDegree(wide), n))

				pass := func(label string, tops []int) {
					refs := make(map[int][]float64, len(seeds))
					for _, seed := range seeds {
						ref, err := d.Query(seed)
						if err != nil {
							t.Fatalf("%s: Query(%d): %v", label, seed, err)
						}
						refs[seed] = ref
					}
					for _, top := range tops {
						k := min(top, n)
						for _, seed := range seeds {
							what := fmt.Sprintf("%s seed %d top %d", label, seed, top)
							out := serveJSON(t, h, "GET", fmt.Sprintf("%s/query?seed=%d&top=%d", base, seed, top), "")
							checkRanked(t, what+" /query", out["results"], bear.TopK(refs[seed], k), refs[seed])
							out = serveJSON(t, h, "GET", fmt.Sprintf("%s/topk?seed=%d&k=%d", base, seed, top), "")
							checkRanked(t, what+" /topk", out["results"], bear.TopK(refs[seed], k), refs[seed])
						}

						// /batch with a top no /query request used, so every
						// slot misses unless the top is clamped to n.
						batchTop := top + 1
						body, _ := json.Marshal(map[string]interface{}{"seeds": seeds, "top": batchTop})
						out := serveJSON(t, h, "POST", base+"/batch", string(body))
						for i, raw := range out["results"].([]interface{}) {
							slot := raw.(map[string]interface{})
							if slot["cache"] != "miss" && batchTop <= n {
								t.Fatalf("%s batch slot %d cache %v, want miss", label, i, slot["cache"])
							}
							ref := refs[seeds[i]]
							checkRanked(t, fmt.Sprintf("%s /batch seed %d top %d", label, seeds[i], batchTop),
								slot["results"], bear.TopK(ref, min(batchTop, n)), ref)
						}

						cur := d.Graph()
						candSeeds := append([]int{wide}, seeds...)
						for _, ck := range []int{k, wideK} {
							body, _ = json.Marshal(map[string]interface{}{"seeds": candSeeds, "k": ck})
							out = serveJSON(t, h, "POST", base+"/candidates", string(body))
							for i, raw := range out["results"].([]interface{}) {
								seed := candSeeds[i]
								ref, ok := refs[seed]
								if !ok {
									var err error
									if ref, err = d.Query(seed); err != nil {
										t.Fatal(err)
									}
								}
								checkRanked(t, fmt.Sprintf("%s /candidates seed %d k %d", label, seed, ck),
									raw.(map[string]interface{})["candidates"], bear.TopKCandidates(cur, ref, seed, ck), ref)
							}
						}
					}

					// PPR: hub seeds with zero weights mixed in, and two
					// isolated blocks at once.
					dists := []map[int]float64{{seeds[0]: 1}, {seeds[0]: 0.3, seeds[len(seeds)-1]: 1.7}}
					if len(iso) == 2 {
						dists = append(dists, map[int]float64{iso[0]: 1, iso[1]: 0.5, seeds[0]: 0})
					}
					if hubs > 0 {
						dists = append(dists,
							map[int]float64{seeds[3]: 2},
							map[int]float64{seeds[3]: 0.5, seeds[1]: 0, seeds[2]: 1.25},
							map[int]float64{seeds[3]: 0.5, seeds[3+hubs-1]: 0.25, seeds[0]: 0})
					}
					for j, dist := range dists {
						q := make([]float64, n)
						weights := map[string]float64{}
						for v, w := range dist {
							q[v] = w
							weights[fmt.Sprint(v)] = w
						}
						if slices.Max(q) == 0 {
							continue // a fixture with few nodes zeroed every seed
						}
						ref, err := d.QueryDist(q)
						if err != nil {
							t.Fatal(err)
						}
						for _, top := range tops {
							body, _ := json.Marshal(map[string]interface{}{"seeds": weights, "top": top})
							out := serveJSON(t, h, "POST", base+"/ppr", string(body))
							checkRanked(t, fmt.Sprintf("%s /ppr dist %d %v top %d", label, j, dist, top),
								out["results"], bear.TopK(ref, min(top, n)), ref)
						}
					}
				}

				pass("clean", []int{1, 10, 100})
				if known < n && !isolated(p, wide) {
					res, err := d.QueryTopK(wide, wideK+1+g.OutDegree(wide))
					if err != nil {
						t.Fatal(err)
					}
					if res.Stats.Fallback != "no_threshold" {
						t.Fatalf("candidates seed %d at k %d ran %+v, want the no_threshold fallback", wide, wideK, res.Stats)
					}
					noThreshold++
				}
				if n > 1 {
					if err := d.AddEdge(n-1, 0, 1.5); err != nil {
						t.Fatalf("AddEdge: %v", err)
					}
					pass("pending", []int{10})
				}
			})
		}
	}
}

// isolatedSeeds returns up to count spokes from distinct isolated blocks:
// seeds whose queries never reach a hub.
func isolatedSeeds(p *bear.Precomputed, count int) []int {
	var out []int
	seen := map[int]bool{}
	for v := 0; v < p.N && len(out) < count; v++ {
		if bi := p.BlockOf(v); !seen[bi] && isolated(p, v) {
			seen[bi] = true
			out = append(out, v)
		}
	}
	return out
}

// isolated reports whether v is a spoke whose diagonal block holds no
// column of H₂₁.
func isolated(p *bear.Precomputed, v int) bool {
	bi := p.BlockOf(v)
	if bi < 0 {
		return false
	}
	if p.H21 != nil {
		for _, j := range p.H21.ColIdx {
			if j >= p.BlockOffsets[bi] && j < p.BlockOffsets[bi+1] {
				return false
			}
		}
	}
	return true
}

// TestDefaultCountClampedToSmallGraph: on a graph of fewer than 10 nodes,
// a ranked read that names no count asks for every node, so it shares
// its cache entry with one that asks for 10, and /batch shares /query's.
func TestDefaultCountClampedToSmallGraph(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs/g"
	doJSON(t, "PUT", base, "0 1\n1 2\n2 3\n3 4\n4 0\n", http.StatusCreated)
	for _, c := range []struct {
		method, path, body string
		want               string
	}{
		{"GET", "/query?seed=0", "", "miss"},
		{"GET", "/query?seed=0&top=10", "", "hit"},
		{"POST", "/batch", `{"seeds":[0]}`, "hit"},
		{"POST", "/batch", `{"seeds":[0],"top":10}`, "hit"},
		{"GET", "/pagerank", "", "miss"},
		{"GET", "/pagerank?top=10", "", "hit"},
		{"POST", "/ppr", `{"seeds":{"1":1}}`, "miss"},
		{"POST", "/ppr", `{"seeds":{"1":1},"top":10}`, "hit"},
		{"GET", "/topk?seed=2", "", "miss"},
		{"GET", "/topk?seed=2&k=10", "", "hit"},
		{"POST", "/candidates", `{"seeds":[3]}`, "miss"},
		{"POST", "/candidates", `{"seeds":[3],"k":10}`, "hit"},
	} {
		out, st := doJSONCache(t, c.method, base+c.path, c.body, http.StatusOK)
		if st != c.want {
			t.Fatalf("%s %s %s: X-Cache %q, want %q", c.method, c.path, c.body, st, c.want)
		}
		list := out["results"].([]interface{})
		if c.method == "POST" && strings.HasPrefix(c.body, `{"seeds":[`) {
			slot := list[0].(map[string]interface{})
			if slot["cache"] != c.want {
				t.Fatalf("%s %s: slot cache %v, want %q", c.path, c.body, slot["cache"], c.want)
			}
			if slot["results"] != nil {
				list = slot["results"].([]interface{})
			} else {
				list = slot["candidates"].([]interface{})
			}
		}
		want := 5
		if strings.HasPrefix(c.path, "/candidates") {
			want = 3 // the seed and its out-neighbor 4 are excluded
		}
		if len(list) != want {
			t.Fatalf("%s %s %s: %d results, want %d", c.method, c.path, c.body, len(list), want)
		}
	}
}

// TestPPRRejectsNodeNamedTwice: a /ppr body whose seeds map spells one
// node two ways ("3", "03", "+3") describes no single distribution, so it
// answers 400 instead of keeping whichever weight the map visits last,
// and a zero weight does not excuse the repeat.
func TestPPRRejectsNodeNamedTwice(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs/g"
	doJSON(t, "PUT", base, edgeListBody(), http.StatusCreated)
	for _, body := range []string{
		`{"seeds":{"3":1,"03":2}}`,
		`{"seeds":{"3":1,"+3":1},"top":4}`,
		`{"seeds":{"0":1,"3":0,"003":0}}`,
	} {
		out := doJSON(t, "POST", base+"/ppr", body, http.StatusBadRequest)
		if msg, _ := out["error"].(string); !strings.Contains(msg, "listed twice") {
			t.Fatalf("%s: error %q, want it to name the repeated node", body, msg)
		}
	}
	doJSON(t, "POST", base+"/ppr", `{"seeds":{"3":1,"30":2}}`, http.StatusOK)
}
