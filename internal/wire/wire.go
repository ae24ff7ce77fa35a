// Package wire owns the ranked response bodies of the bear HTTP service:
// /query, /pagerank, /ppr, /topk, /batch and /candidates. The server
// appends them without reflection, byte for byte what encoding/json writes
// for the same document, and the client parses them back without
// reflection, one allocation per result list. encoding/json stays the
// reference: the parser declines anything outside the shapes the server
// writes, and the caller hands the same bytes to encoding/json instead.
package wire

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
)

// ScoredNode is one ranked result.
type ScoredNode struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

// BatchSeedResult is one seed's slot in a /batch response.
type BatchSeedResult struct {
	Seed    int          `json:"seed"`
	Cache   string       `json:"cache"` // hit | miss
	Results []ScoredNode `json:"results"`
}

// CandidateSeedResult is one seed's slot in a /candidates response.
type CandidateSeedResult struct {
	Seed       int          `json:"seed"`
	Cache      string       `json:"cache"` // hit | miss
	Candidates []ScoredNode `json:"candidates"`
}

// Kind is a ranked body's shape: the keys it carries.
type Kind uint8

const (
	// KindQuery is /query's body: graph, results, seed.
	KindQuery Kind = iota
	// KindList is /pagerank's and /ppr's body: graph, results.
	KindList
	// KindTopK is /topk's body: fallback (when set), graph, k, results,
	// seed.
	KindTopK
	// KindBatch is /batch's body: graph, results (one BatchSeedResult per
	// seed).
	KindBatch
	// KindCandidates is /candidates' body: graph, k, results (one
	// CandidateSeedResult per seed).
	KindCandidates
)

// Doc is one ranked response document; Kind picks which fields it writes.
type Doc struct {
	Kind       Kind
	Graph      string
	Seed       int                   // KindQuery, KindTopK
	K          int                   // KindTopK, KindCandidates
	Fallback   string                // KindTopK, omitted when empty
	Results    []ScoredNode          // KindQuery, KindList, KindTopK
	Batch      []BatchSeedResult     // KindBatch
	Candidates []CandidateSeedResult // KindCandidates
	// Trace, when non-nil, is written under "trace" by encoding/json.
	Trace any
}

// Append appends d's body to b: exactly the bytes
// json.NewEncoder(w).Encode writes for the same document built as a
// map[string]interface{} — sorted keys, encoding/json's float format and
// the trailing newline. A NaN or infinite score fails with the
// *json.UnsupportedValueError encoding/json reports for it.
func Append(b []byte, d *Doc) ([]byte, error) {
	b = append(b, '{')
	if d.Kind == KindTopK && d.Fallback != "" {
		b = appendString(append(b, `"fallback":`...), d.Fallback)
		b = append(b, ',')
	}
	b = appendString(append(b, `"graph":`...), d.Graph)
	if d.Kind == KindTopK || d.Kind == KindCandidates {
		b = strconv.AppendInt(append(b, `,"k":`...), int64(d.K), 10)
	}
	b = append(b, `,"results":`...)
	var err error
	switch d.Kind {
	case KindBatch:
		b, err = appendSlots(b, d.Batch, func(b []byte, s *BatchSeedResult) ([]byte, error) {
			return appendSlot(b, s.Seed, s.Cache, "results", s.Results)
		})
	case KindCandidates:
		b, err = appendSlots(b, d.Candidates, func(b []byte, s *CandidateSeedResult) ([]byte, error) {
			return appendSlot(b, s.Seed, s.Cache, "candidates", s.Candidates)
		})
	default:
		b, err = appendList(b, d.Results)
	}
	if err != nil {
		return b, err
	}
	if d.Kind == KindQuery || d.Kind == KindTopK {
		b = strconv.AppendInt(append(b, `,"seed":`...), int64(d.Seed), 10)
	}
	if d.Trace != nil {
		t, err := json.Marshal(d.Trace)
		if err != nil {
			return b, err
		}
		b = append(append(b, `,"trace":`...), t...)
	}
	return append(b, '}', '\n'), nil
}

// appendSlots appends a JSON array of per-seed slots, or null for a nil
// slice, as encoding/json does.
func appendSlots[S any](b []byte, slots []S, slot func([]byte, *S) ([]byte, error)) ([]byte, error) {
	if slots == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i := range slots {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = slot(b, &slots[i]); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// appendSlot appends one per-seed object in its struct's field order:
// seed, cache, then the ranked list under listKey.
func appendSlot(b []byte, seed int, cache, listKey string, list []ScoredNode) ([]byte, error) {
	b = strconv.AppendInt(append(b, `{"seed":`...), int64(seed), 10)
	b = appendString(append(b, `,"cache":`...), cache)
	b = append(append(append(b, `,"`...), listKey...), `":`...)
	b, err := appendList(b, list)
	return append(b, '}'), err
}

// appendList appends a ranked list, or null for a nil slice.
func appendList(b []byte, list []ScoredNode) ([]byte, error) {
	if list == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, r := range list {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"node":`...), int64(r.Node), 10)
		var err error
		if b, err = appendFloat(append(b, `,"score":`...), r.Score); err != nil {
			return b, err
		}
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back to the same bits, in exponent form below 1e-6
// or from 1e21 up, with a one-digit negative exponent unpadded (1e-7, not
// 1e-07).
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString appends s as a JSON string. Graph names, cache states and
// fallback reasons are plain ASCII and are copied through; a string
// holding a byte encoding/json may escape or replace (a quote, backslash,
// control character, <, > or &, or any non-ASCII byte) is written by
// encoding/json itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
