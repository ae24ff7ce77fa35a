package wire

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

// benchDocs are the two bodies e2ebench's reads are made of: a 10-entry
// /query answer and a 16-seed /batch answer at top 10, with node ids and
// full-precision scores of the size an 8000-node RWR query returns.
func benchDocs() (query, batch *Doc) {
	rng := rand.New(rand.NewSource(1))
	list := func() []ScoredNode {
		out := make([]ScoredNode, 10)
		score := 0.05 + 0.1*rng.Float64()
		for i := range out {
			out[i] = ScoredNode{Node: rng.Intn(8000), Score: score}
			score *= 0.3 + 0.6*rng.Float64()
		}
		return out
	}
	query = &Doc{Kind: KindQuery, Graph: "rmat", Seed: 4711, Results: list()}
	batch = &Doc{Kind: KindBatch, Graph: "rmat", Batch: make([]BatchSeedResult, 16)}
	for i := range batch.Batch {
		cache := "hit"
		if i%3 == 0 {
			cache = "miss"
		}
		batch.Batch[i] = BatchSeedResult{Seed: rng.Intn(8000), Cache: cache, Results: list()}
	}
	return query, batch
}

func benchBodies(tb testing.TB) (query, batch []byte) {
	q, b := benchDocs()
	query, err := Append(nil, q)
	if err != nil {
		tb.Fatal(err)
	}
	batch, err = Append(nil, b)
	if err != nil {
		tb.Fatal(err)
	}
	return query, batch
}

var sink []byte

// BenchmarkWireEncode compares Append against the handlers' former
// json.NewEncoder(w).Encode of a map, both into a reused buffer.
func BenchmarkWireEncode(b *testing.B) {
	q, bt := benchDocs()
	for _, c := range []struct {
		name string
		doc  *Doc
	}{{"query", q}, {"batch16x10", bt}} {
		b.Run(c.name+"/wire", func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = Append(buf[:0], c.doc); err != nil {
					b.Fatal(err)
				}
			}
			sink = buf
		})
		b.Run(c.name+"/encoding_json", func(b *testing.B) {
			b.ReportAllocs()
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := json.NewEncoder(&buf).Encode(legacyMap(c.doc)); err != nil {
					b.Fatal(err)
				}
			}
			sink = buf.Bytes()
		})
	}
}

var (
	rankedSink Ranked
	batchSink  Batch
)

// BenchmarkWireDecode compares the parsers against the client's former
// json.NewDecoder(body).Decode into the same targets.
func BenchmarkWireDecode(b *testing.B) {
	q, bt := benchBodies(b)
	b.Run("query/wire", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r Ranked
			if !r.Parse(q) {
				b.Fatal("declined")
			}
			rankedSink = r
		}
	})
	b.Run("query/encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r Ranked
			if err := json.NewDecoder(bytes.NewReader(q)).Decode(&r); err != nil {
				b.Fatal(err)
			}
			rankedSink = r
		}
	})
	b.Run("batch16x10/wire", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r Batch
			if !r.Parse(bt) {
				b.Fatal("declined")
			}
			batchSink = r
		}
	})
	b.Run("batch16x10/encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r Batch
			if err := json.NewDecoder(bytes.NewReader(bt)).Decode(&r); err != nil {
				b.Fatal(err)
			}
			batchSink = r
		}
	})
}
