package wire

import (
	"bytes"
	"math"
	"testing"
)

// FuzzWireEncode: for any node ids, score bits and graph name, Append
// writes encoding/json's bytes for every shape, and declines — with
// encoding/json's error — exactly when a score is NaN or infinite.
func FuzzWireEncode(f *testing.F) {
	bits := func(x float64) uint64 { return math.Float64bits(x) }
	for i, s := range edgeScores {
		n := int64(edgeNodes[i%len(edgeNodes)])
		f.Add("g", n, bits(s), -n, bits(-s))
	}
	f.Add("g", int64(3), bits(math.NaN()), int64(4), bits(0.5))
	f.Add("g", int64(3), bits(0.5), int64(4), bits(math.Inf(-1)))
	f.Add(`a"b\c<d>&`, int64(1<<53+1), bits(1e21), int64(-1), bits(math.Nextafter(1e21, 0)))
	f.Add("ü\xff", int64(math.MinInt64), bits(9.99e-7), int64(math.MaxInt64), bits(1e-6))
	f.Fuzz(func(t *testing.T, graph string, n1 int64, s1 uint64, n2 int64, s2 uint64) {
		list := []ScoredNode{{Node: int(n1), Score: math.Float64frombits(s1)}, {Node: int(n2), Score: math.Float64frombits(s2)}}
		finite := true
		for _, r := range list {
			finite = finite && !math.IsNaN(r.Score) && !math.IsInf(r.Score, 0)
		}
		for _, k := range allKinds {
			d := docOf(k, graph, list)
			d.Seed, d.K = int(n2), int(n1)
			if _, err := Append(nil, d); (err == nil) != finite {
				t.Fatalf("kind %d, scores %v: Append error %v", k, list, err)
			}
			checkAppend(t, d)
		}
	})
}

// FuzzWireDecode: for any bytes, each parser either declines, leaving its
// target untouched, or returns exactly what encoding/json's Decoder
// returns for the same target, scores compared bit for bit.
func FuzzWireDecode(f *testing.F) {
	q, b := benchBodies(f)
	f.Add(q)
	f.Add(b)
	for _, k := range allKinds {
		body, err := Append(nil, docOf(k, "g", []ScoredNode{{Node: 1 << 53, Score: math.Copysign(0, -1)}, {Node: -5, Score: 5e-324}}))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(body[:len(body)/2])                                    // truncated
		f.Add(bytes.ReplaceAll(body, []byte(","), []byte(" ,\n\t"))) // whitespace
	}
	for _, c := range declineCases {
		f.Add([]byte(c.accept))
		f.Add([]byte(c.decline))
	}
	for _, s := range []string{
		`{"results":[{"node":1,"score":9.99e-7},{"node":2,"score":1e-6},{"node":3,"score":1e21},{"node":4,"score":1E+21}]}`,
		`{"results":[{"node":-0,"score":-0},{"node":9007199254740993,"score":0.1}]}`,
		`{"results":[{"score":0.5,"node":1}],"seed":3,"graph":"g","k":1,"fallback":"pending_updates"}`,
		`{"graph":"g","results":[{"seed":1,"cache":"hit","results":[]}]}`,
		`{"graph":"g","k":2,"results":[{"candidates":[{"node":1,"score":0.5}],"cache":"miss","seed":1}]}`,
		`{"results":[],"trace":[{"span":"cache_lookup","ms":0.001}]}`,
		`{"results":[],"TRACE":[]}`,
		` {"results":[]} `,
		`null`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParse(t, data)
	})
}
