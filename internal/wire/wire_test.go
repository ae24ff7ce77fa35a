package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

// legacyMap is d as the server's handlers used to build it before they
// wrote through Append: the map encoding/json encodes with sorted keys.
func legacyMap(d *Doc) map[string]interface{} {
	m := map[string]interface{}{"graph": d.Graph}
	switch d.Kind {
	case KindQuery:
		m["seed"], m["results"] = d.Seed, d.Results
	case KindList:
		m["results"] = d.Results
	case KindTopK:
		m["seed"], m["k"], m["results"] = d.Seed, d.K, d.Results
		if d.Fallback != "" {
			m["fallback"] = d.Fallback
		}
	case KindBatch:
		m["results"] = d.Batch
	case KindCandidates:
		m["k"], m["results"] = d.K, d.Candidates
	}
	if d.Trace != nil {
		m["trace"] = d.Trace
	}
	return m
}

// reference encodes d the way the handlers used to: json.NewEncoder(w).Encode.
func reference(d *Doc) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(legacyMap(d))
	return buf.Bytes(), err
}

var allKinds = []Kind{KindQuery, KindList, KindTopK, KindBatch, KindCandidates}

// docOf builds a document of kind k around one ranked list.
func docOf(k Kind, graph string, list []ScoredNode) *Doc {
	d := &Doc{Kind: k, Graph: graph, Seed: 7, K: len(list), Results: list}
	switch k {
	case KindTopK:
		d.Fallback = "no_threshold"
	case KindBatch:
		d.Results = nil
		d.Batch = []BatchSeedResult{{Seed: 7, Cache: "miss", Results: list}, {Seed: -3, Cache: "hit", Results: []ScoredNode{}}}
	case KindCandidates:
		d.Results = nil
		d.Candidates = []CandidateSeedResult{{Seed: 7, Cache: "hit", Candidates: list}, {Seed: 1 << 60, Cache: "miss", Candidates: list[:0]}}
	}
	return d
}

// edgeScores are the float64s where encoding/json's format changes or
// rounds: signed zero, the smallest subnormal, both exponent cut-offs and
// their neighbours, and the largest finite value.
var edgeScores = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 9.99e-7, 1e-6,
	math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 1.5e-10, 0.1, 1.0 / 3, 1, -2.5,
	1e20, 1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21,
	1e100, math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// edgeNodes are ids around the int64 and float64-exact limits.
var edgeNodes = []int{0, -1, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64, 8191}

func TestAppendMatchesEncodingJSON(t *testing.T) {
	var list []ScoredNode
	for i, s := range edgeScores {
		list = append(list, ScoredNode{Node: edgeNodes[i%len(edgeNodes)], Score: s})
	}
	names := []string{"g", "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.",
		`quote"back\slash`, "<html>&amp;", "tab\tnl\n", "ünï\u2028", "bad\xffutf8", ""}
	trace := []struct {
		Span string  `json:"span"`
		Ms   float64 `json:"ms"`
	}{{"cache_lookup", 0.001}, {"schur_solve", 1.25}}
	for _, k := range allKinds {
		for _, name := range names {
			for _, withTrace := range []bool{false, true} {
				d := docOf(k, name, list)
				if withTrace {
					d.Trace = trace
				}
				checkAppend(t, d)
			}
		}
		// nil lists encode as null, empty ones as [].
		checkAppend(t, docOf(k, "g", []ScoredNode{}))
		d := docOf(k, "g", nil)
		d.Batch, d.Candidates = nil, nil
		checkAppend(t, d)
	}
	plain := docOf(KindTopK, "g", list)
	plain.Fallback = ""
	checkAppend(t, plain)
}

// checkAppend asserts that Append writes the reference's bytes after a
// non-empty prefix, or fails exactly when the reference fails, with the
// same error text.
func checkAppend(t *testing.T, d *Doc) {
	t.Helper()
	want, wantErr := reference(d)
	got, err := Append([]byte("prefix"), d)
	switch {
	case wantErr != nil || err != nil:
		if wantErr == nil || err == nil || !strings.Contains(wantErr.Error(), err.Error()) {
			t.Fatalf("kind %d: Append error %v, encoding/json error %v", d.Kind, err, wantErr)
		}
	case !bytes.Equal(got[len("prefix"):], want):
		t.Fatalf("kind %d:\nAppend        %s\nencoding/json %s", d.Kind, got[len("prefix"):], want)
	}
}

func TestAppendRejectsNonFiniteScores(t *testing.T) {
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, k := range allKinds {
			d := docOf(k, "g", []ScoredNode{{Node: 1, Score: 0.5}, {Node: 2, Score: s}})
			_, err := Append(nil, d)
			var uv *json.UnsupportedValueError
			if !errors.As(err, &uv) {
				t.Fatalf("kind %d score %v: Append error %v, want *json.UnsupportedValueError", k, s, err)
			}
			checkAppend(t, d)
		}
	}
}

// sameList reports whether two ranked lists are equal node for node and
// bit for bit, nil and empty kept apart as encoding/json keeps them.
func sameList(a, b []ScoredNode) bool {
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

func sameBatch(a, b []BatchSeedResult) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i].Seed != b[i].Seed || a[i].Cache != b[i].Cache || !sameList(a[i].Results, b[i].Results) {
			return false
		}
	}
	return true
}

func sameCandidates(a, b []CandidateSeedResult) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i].Seed != b[i].Seed || a[i].Cache != b[i].Cache || !sameList(a[i].Candidates, b[i].Candidates) {
			return false
		}
	}
	return true
}

// checkParse asserts the parser contract on one body for all three
// targets: each either declines, leaving its target untouched, or returns
// exactly what encoding/json's Decoder returns, which must succeed. It
// returns which targets accepted: bit 0 Ranked, bit 1 Batch, bit 2
// Candidates.
func checkParse(t *testing.T, body []byte) int {
	t.Helper()
	decode := func(v interface{}) error { return json.NewDecoder(bytes.NewReader(body)).Decode(v) }
	sentinel := []ScoredNode{{Node: -42, Score: 42}}
	accepted := 0

	r := Ranked{Results: sentinel}
	if r.Parse(body) {
		accepted |= 1
		var ref Ranked
		if err := decode(&ref); err != nil || !sameList(r.Results, ref.Results) {
			t.Fatalf("Ranked.Parse(%q) = %v; encoding/json %v, %v", body, r.Results, ref.Results, err)
		}
	} else if !sameList(r.Results, sentinel) {
		t.Fatalf("Ranked.Parse(%q) declined but changed its target", body)
	}

	bs := []BatchSeedResult{{Seed: -42}}
	b := Batch{Results: bs}
	if b.Parse(body) {
		accepted |= 2
		var ref Batch
		if err := decode(&ref); err != nil || !sameBatch(b.Results, ref.Results) {
			t.Fatalf("Batch.Parse(%q) = %v; encoding/json %v, %v", body, b.Results, ref.Results, err)
		}
	} else if !sameBatch(b.Results, bs) {
		t.Fatalf("Batch.Parse(%q) declined but changed its target", body)
	}

	cs := []CandidateSeedResult{{Seed: -42}}
	c := Candidates{Results: cs}
	if c.Parse(body) {
		accepted |= 4
		var ref Candidates
		if err := decode(&ref); err != nil || !sameCandidates(c.Results, ref.Results) {
			t.Fatalf("Candidates.Parse(%q) = %v; encoding/json %v, %v", body, c.Results, ref.Results, err)
		}
	} else if !sameCandidates(c.Results, cs) {
		t.Fatalf("Candidates.Parse(%q) declined but changed its target", body)
	}
	return accepted
}

// TestParseTakesEveryAppendedBody: whatever Append writes for finite
// scores, the matching target parses, equal to encoding/json's decode;
// a non-empty result list parses only as its own shape.
func TestParseTakesEveryAppendedBody(t *testing.T) {
	var list []ScoredNode
	for i, s := range edgeScores {
		list = append(list, ScoredNode{Node: edgeNodes[i%len(edgeNodes)], Score: s})
	}
	trace := []struct {
		Span string  `json:"span"`
		Ms   float64 `json:"ms"`
	}{{"forward_solve", 0.012}}
	for _, k := range allKinds {
		own := map[Kind]int{KindBatch: 2, KindCandidates: 4}[k]
		if own == 0 {
			own = 1
		}
		for _, list := range [][]ScoredNode{list, {}} {
			d := docOf(k, "g.x-Y_9", list)
			for _, withTrace := range []bool{false, true} {
				if withTrace {
					d.Trace = trace
				}
				body, err := Append(nil, d)
				if err != nil {
					t.Fatal(err)
				}
				got := checkParse(t, body)
				if got&own == 0 || (len(list) > 0 && got != own) {
					t.Fatalf("kind %d: targets %03b accepted %s, want %03b", k, got, body, own)
				}
			}
		}
	}
}

// declineCases are bodies every target must decline, one per rule, each
// next to an accepted twin so the rule, not a typo, is what declines.
var declineCases = []struct{ rule, accept, decline string }{
	{"escaped key", `{"graph":"g","results":[]}`, `{"gr\u0061ph":"g","results":[]}`},
	{"escaped string", `{"graph":"g","results":[]}`, `{"graph":"\u0067","results":[]}`},
	{"non-ASCII string", `{"graph":"g","results":[]}`, `{"graph":"é","results":[]}`},
	{"case-variant key", `{"results":[{"node":1,"score":0.5}]}`, `{"Results":[{"node":1,"score":0.5}]}`},
	{"case-variant entry key", `{"results":[{"node":1,"score":0.5}]}`, `{"results":[{"Node":1,"score":0.5}]}`},
	{"unknown key", `{"graph":"g","results":[]}`, `{"graph":"g","results":[],"pruned":true}`},
	{"unknown entry key", `{"results":[{"node":1,"score":0.5}]}`, `{"results":[{"node":1,"score":0.5,"rank":1}]}`},
	{"duplicate key", `{"results":[{"node":1,"score":0.5}]}`, `{"results":[],"results":[{"node":1,"score":0.5}]}`},
	{"duplicate entry key", `{"results":[{"node":1,"score":0.5}]}`, `{"results":[{"node":1,"node":2,"score":0.5}]}`},
	{"null results", `{"results":[]}`, `{"results":null}`},
	{"null score", `{"results":[{"node":1,"score":0.5}]}`, `{"results":[{"node":1,"score":null}]}`},
	{"missing results", `{"results":[]}`, `{"graph":"g"}`},
	{"missing score", `{"results":[{"node":1,"score":0.5}]}`, `{"results":[{"node":1}]}`},
	{"trailing data", `{"results":[]}` + "\n", `{"results":[]}` + "\n{}"},
	{"float overflow", `{"results":[{"node":1,"score":1e308}]}`, `{"results":[{"node":1,"score":1e309}]}`},
	{"fractional id", `{"results":[{"node":1,"score":0.5}]}`, `{"results":[{"node":1.5,"score":0.5}]}`},
	{"exponent id", `{"results":[{"node":1,"score":0.5}]}`, `{"results":[{"node":1e2,"score":0.5}]}`},
	{"int overflow", `{"results":[{"node":9223372036854775807,"score":0.5}]}`, `{"results":[{"node":9223372036854775808,"score":0.5}]}`},
	{"string id", `{"results":[{"node":1,"score":0.5}]}`, `{"results":[{"node":"1","score":0.5}]}`},
	{"leading zero", `{"results":[{"node":0,"score":0.5}]}`, `{"results":[{"node":01,"score":0.5}]}`},
	{"truncated", `{"results":[{"node":1,"score":0.5}]}`, `{"results":[{"node":1,"score":0.5}]`},
	{"trace shape", `{"results":[],"trace":[{"span":"x","ms":1}]}`, `{"results":[],"trace":[{"span":"x","ms":1,"at":2}]}`},
}

func TestParseDeclines(t *testing.T) {
	for _, c := range declineCases {
		var r Ranked
		if !r.Parse([]byte(c.accept)) {
			t.Fatalf("%s: Ranked.Parse declined the accepted twin %s", c.rule, c.accept)
		}
		checkParse(t, []byte(c.accept))
		if got := checkParse(t, []byte(c.decline)); got != 0 {
			t.Fatalf("%s: %d targets accepted %s", c.rule, got, c.decline)
		}
	}
}

// TestParseAllocations pins the decoder's allocation budget: one per
// result list (the batch's slot list included) and none for the rest.
func TestParseAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled parsers at random; allocation counts are only meaningful without -race")
	}
	q, b := benchBodies(t)
	if n := testing.AllocsPerRun(100, func() {
		var r Ranked
		r.Parse(q)
	}); n != 1 {
		t.Errorf("query body: %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		var r Batch
		r.Parse(b)
	}); n != 17 {
		t.Errorf("16-seed batch body: %v allocations, want 17", n)
	}
}
