package wire

import (
	"strconv"
	"sync"
)

// Ranked is what a client reads from a /query, /pagerank, /ppr or /topk
// body: its ranked list.
type Ranked struct {
	Results []ScoredNode `json:"results"`
}

// Batch is what a client reads from a /batch body: one slot per seed.
type Batch struct {
	Results []BatchSeedResult `json:"results"`
}

// Candidates is what a client reads from a /candidates body: one slot per
// seed.
type Candidates struct {
	Results []CandidateSeedResult `json:"results"`
}

// The parsers read exactly the shapes Append writes, with keys in any
// order and JSON whitespace anywhere, and decline everything else,
// leaving their target untouched so the caller can decode the same bytes
// with encoding/json and get its result or error. They decline on a
// string escape or non-ASCII byte, a key that is not the shape's (unknown,
// case-variant or repeated), null or any other value of the wrong type, a
// missing results list, a missing entry field, a number strconv rejects
// for its field, and anything but whitespace after the document. A trace
// array of the shape the server writes is checked and dropped: none of
// these targets reads it.

// Parse fills r from a /query, /pagerank, /ppr or /topk body, reporting
// false, with r untouched, when the body is outside those shapes.
func (r *Ranked) Parse(b []byte) bool {
	p := newParser(b)
	defer p.free()
	var list []ScoredNode
	if !p.document(keyFallback|keyGraph|keyK|keySeed, func() (ok bool) {
		list, ok = p.list()
		return ok
	}) {
		return false
	}
	r.Results = list
	return true
}

// Parse fills r from a /batch body, reporting false, with r untouched,
// when the body is outside that shape.
func (r *Batch) Parse(b []byte) bool {
	p := newParser(b)
	defer p.free()
	var slots []BatchSeedResult
	if !p.document(keyGraph, func() (ok bool) {
		slots, ok = collect(p, &p.batch, func() (s BatchSeedResult, ok bool) {
			ok = p.slot(&s.Seed, &s.Cache, "results", &s.Results)
			return s, ok
		})
		return ok
	}) {
		return false
	}
	r.Results = slots
	return true
}

// Parse fills r from a /candidates body, reporting false, with r
// untouched, when the body is outside that shape.
func (r *Candidates) Parse(b []byte) bool {
	p := newParser(b)
	defer p.free()
	var slots []CandidateSeedResult
	if !p.document(keyGraph|keyK, func() (ok bool) {
		slots, ok = collect(p, &p.cands, func() (s CandidateSeedResult, ok bool) {
			ok = p.slot(&s.Seed, &s.Cache, "candidates", &s.Candidates)
			return s, ok
		})
		return ok
	}) {
		return false
	}
	r.Results = slots
	return true
}

// Top-level keys, one bit each.
const (
	keyFallback = 1 << iota
	keyGraph
	keyK
	keyResults
	keySeed
	keyTrace
)

// parser is a cursor over one body plus scratch lists that collect
// entries until their count is known; the result lists are exact-size
// copies, so nothing returned refers to the body or the scratch.
type parser struct {
	b     []byte
	i     int
	nodes []ScoredNode
	batch []BatchSeedResult
	cands []CandidateSeedResult
}

var parsers = sync.Pool{New: func() any { return new(parser) }}

// maxScratch bounds the ranked-list scratch a pooled parser keeps (a
// /pagerank of every node can be long); the slot scratch stays within the
// server's 1024-seed batch limit.
const maxScratch = 1 << 14

func newParser(b []byte) *parser {
	p := parsers.Get().(*parser)
	p.b, p.i = b, 0
	return p
}

// free returns p to the pool without references to the body or to
// returned lists.
func (p *parser) free() {
	clear(p.batch)
	clear(p.cands)
	p.b, p.batch, p.cands = nil, p.batch[:0], p.cands[:0]
	if cap(p.nodes) > maxScratch {
		p.nodes = nil
	}
	parsers.Put(p)
}

// document reads one body: an object holding results, optionally a trace,
// and only the other keys in allowed, each once; then nothing but
// whitespace. results reads the "results" value.
func (p *parser) document(allowed uint, results func() bool) bool {
	allowed |= keyResults | keyTrace
	var seen uint
	ok := p.object(func(key []byte) bool {
		var bit uint
		switch string(key) {
		case "fallback":
			bit = keyFallback
		case "graph":
			bit = keyGraph
		case "k":
			bit = keyK
		case "results":
			bit = keyResults
		case "seed":
			bit = keySeed
		case "trace":
			bit = keyTrace
		}
		if bit&allowed == 0 || !once(&seen, bit) {
			return false
		}
		switch bit {
		case keyResults:
			return results()
		case keyTrace:
			return p.trace()
		case keyGraph, keyFallback:
			_, ok := p.str()
			return ok
		default:
			_, ok := p.integer()
			return ok
		}
	})
	p.ws()
	return ok && seen&keyResults != 0 && p.i == len(p.b)
}

// once sets bit in seen, reporting false if it was set already.
func once(seen *uint, bit uint) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// slot reads one per-seed object: seed, cache, and the ranked list under
// listKey, each exactly once.
func (p *parser) slot(seed *int, cache *string, listKey string, list *[]ScoredNode) bool {
	var seen uint
	return p.object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "seed":
			if ok = once(&seen, 1); ok {
				*seed, ok = p.integer()
			}
		case "cache":
			if ok = once(&seen, 2); ok {
				var s []byte
				s, ok = p.str()
				*cache = cacheState(s)
			}
		case listKey:
			if ok = once(&seen, 4); ok {
				*list, ok = p.list()
			}
		}
		return ok
	}) && seen == 7
}

// cacheState returns a slot's cache field, sharing the two strings the
// server writes instead of allocating them.
func cacheState(s []byte) string {
	switch string(s) {
	case "hit":
		return "hit"
	case "miss":
		return "miss"
	}
	return string(s)
}

// collect reads a JSON array of elements read returns, gathering them in
// scratch and returning one exactly sized copy.
func collect[T any](p *parser, scratch *[]T, read func() (T, bool)) ([]T, bool) {
	*scratch = (*scratch)[:0]
	if !p.array(func() bool {
		v, ok := read()
		*scratch = append(*scratch, v)
		return ok
	}) {
		return nil, false
	}
	return append(make([]T, 0, len(*scratch)), *scratch...), true
}

// list reads a ranked list into one exactly sized slice.
func (p *parser) list() ([]ScoredNode, bool) {
	return collect(p, &p.nodes, func() (r ScoredNode, ok bool) {
		var seen uint
		ok = p.object(func(key []byte) bool {
			var ok bool
			switch string(key) {
			case "node":
				if ok = once(&seen, 1); ok {
					r.Node, ok = p.integer()
				}
			case "score":
				if ok = once(&seen, 2); ok {
					r.Score, ok = p.float()
				}
			}
			return ok
		}) && seen == 3
		return r, ok
	})
}

// trace checks a trace array of the shape the server writes,
// [{"span":"…","ms":…}], and drops it.
func (p *parser) trace() bool {
	return p.array(func() bool {
		var seen uint
		return p.object(func(key []byte) bool {
			var ok bool
			switch string(key) {
			case "span":
				if ok = once(&seen, 1); ok {
					_, ok = p.str()
				}
			case "ms":
				if ok = once(&seen, 2); ok {
					_, _, ok = p.number()
				}
			}
			return ok
		})
	})
}

// object reads a JSON object, calling member with each key once the
// cursor is on that key's value; member consumes the value or declines.
func (p *parser) object(member func(key []byte) bool) bool {
	p.ws()
	if !p.eat('{') {
		return false
	}
	p.ws()
	if p.eat('}') {
		return true
	}
	for {
		p.ws()
		key, ok := p.str()
		if !ok {
			return false
		}
		p.ws()
		if !p.eat(':') {
			return false
		}
		p.ws()
		if !member(key) {
			return false
		}
		p.ws()
		if p.eat('}') {
			return true
		}
		if !p.eat(',') {
			return false
		}
	}
}

// array reads a JSON array, calling elem with the cursor on each element;
// elem consumes it or declines.
func (p *parser) array(elem func() bool) bool {
	p.ws()
	if !p.eat('[') {
		return false
	}
	p.ws()
	if p.eat(']') {
		return true
	}
	for {
		p.ws()
		if !elem() {
			return false
		}
		p.ws()
		if p.eat(']') {
			return true
		}
		if !p.eat(',') {
			return false
		}
	}
}

// ws skips JSON whitespace.
func (p *parser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c if it is next.
func (p *parser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str reads a JSON string of printable ASCII without escapes and returns
// its bytes, a window of the body.
func (p *parser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20, c >= 0x80, c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// number scans a literal of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether it
// has neither fraction nor exponent.
func (p *parser) number() (lit []byte, integral, ok bool) {
	start := p.i
	p.eat('-')
	switch {
	case p.eat('0'):
	case p.digits() == 0:
		return nil, false, false
	}
	integral = true
	if p.eat('.') {
		if p.digits() == 0 {
			return nil, false, false
		}
		integral = false
	}
	if p.eat('e') || p.eat('E') {
		if !p.eat('+') {
			p.eat('-')
		}
		if p.digits() == 0 {
			return nil, false, false
		}
		integral = false
	}
	return p.b[start:p.i], integral, true
}

// digits consumes a run of decimal digits and returns its length.
func (p *parser) digits() int {
	start := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// integer reads a number into an int as encoding/json does: integral
// literals only, within the int range.
func (p *parser) integer() (int, bool) {
	lit, integral, ok := p.number()
	if !ok || !integral {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	return int(n), err == nil
}

// float reads a number into a float64 as encoding/json does, declining
// where strconv.ParseFloat fails (a magnitude beyond the float64 range).
func (p *parser) float() (float64, bool) {
	lit, _, ok := p.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}
