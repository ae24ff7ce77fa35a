package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bear/server"
)

// The tracer records spans from outside the program: around each client
// call, each HTTP round trip the client makes, the front's handler, each
// upstream attempt the front makes (through cluster.Config.Transport), and
// each shard handler. One request ID rides in a header from the client's
// transport to the front; the front's attempts find it in their request
// context (the front derives attempt contexts from the incoming request)
// and put it back on the wire to the shard. Shard reads carry ?trace=1, and
// the stage spans the shard returns become children of the shard span.

const (
	hdrReq    = "X-Bench-Request"
	hdrParent = "X-Bench-Parent"
	hdrSpan   = "X-Bench-Span"
)

// span is one timed interval. Stage spans (layer "core") come back from the
// shard as durations only; they are laid end to end from their parent's
// start when the trace is finished.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
	Shard  string `json:"shard,omitempty"`
	Cache  string `json:"cache,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	Err    bool   `json:"err,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// shardReply is what the upstream wrapper learned from one shard read.
type shardReply struct {
	solves   int  // seeds solved (not answered from the cache)
	topkMiss bool // a topk answer computed by this request
	pruned   bool
}

type tracer struct {
	on  atomic.Bool
	ids atomic.Uint64
	t0  time.Time
	// shardOf maps a shard's host:port to its ID; set before any traffic.
	shardOf map[string]string

	mu      sync.Mutex
	spans   []span
	replies []shardReply
}

func newTracer() *tracer { return &tracer{t0: time.Now(), shardOf: map[string]string{}} }

func (t *tracer) now() int64 { return time.Since(t.t0).Microseconds() }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops everything recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.replies = nil, nil
	t.mu.Unlock()
}

type ctxKey struct{}

// spanRef is the request ID and the current span, carried in a context.
type spanRef struct{ req, id uint64 }

func fromContext(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(ctxKey{}).(spanRef)
	return ref, ok
}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, ctxKey{}, ref)
}

func setRef(h http.Header, req, parent uint64) {
	h.Set(hdrReq, strconv.FormatUint(req, 10))
	h.Set(hdrParent, strconv.FormatUint(parent, 10))
}

func readRef(h http.Header) (req, parent uint64, ok bool) {
	req, err1 := strconv.ParseUint(h.Get(hdrReq), 10, 64)
	parent, err2 := strconv.ParseUint(h.Get(hdrParent), 10, 64)
	return req, parent, err1 == nil && err2 == nil
}

// endpointOf names a /v1/graphs route the way bearserve's metrics do.
func endpointOf(r *http.Request) string {
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/graphs/")
	if !ok {
		return r.URL.Path
	}
	if _, op, found := strings.Cut(rest, "/"); found {
		return op
	}
	if r.Method == http.MethodPut {
		return "put"
	}
	return "graph_stats"
}

func isReadEndpoint(ep string) bool {
	switch ep {
	case "query", "topk", "ppr", "batch", "candidates":
		return true
	}
	return false
}

// startOp opens the root span of one client call.
func (t *tracer) startOp(ctx context.Context) (context.Context, spanRef, int64) {
	ref := spanRef{req: t.newID(), id: t.newID()}
	return withSpan(ctx, ref), ref, t.now()
}

func (t *tracer) endOp(ref spanRef, kind opKind, start int64, failed bool) {
	t.add(span{ID: ref.id, Req: ref.req, Layer: "client", Name: kind.String(), Start: start, End: t.now(), Err: failed})
}

// bufferBody reads a response body to the end so the span covers the whole
// transfer, and hands the caller an equivalent in-memory body.
func bufferBody(resp *http.Response) ([]byte, error) {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return body, err
}

// clientTransport wraps the client's transport: one span per round trip,
// which also counts the client's retries.
type clientTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (c clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := fromContext(req.Context())
	if !ok || !c.t.on.Load() {
		return c.base.RoundTrip(req)
	}
	s := span{ID: c.t.newID(), Parent: ref.id, Req: ref.req, Layer: "client", Name: "roundtrip", Start: c.t.now()}
	req = req.Clone(req.Context())
	setRef(req.Header, ref.req, s.ID)
	resp, err := c.base.RoundTrip(req)
	if err == nil {
		_, err = bufferBody(resp)
	}
	s.End, s.Err = c.t.now(), err != nil
	c.t.add(s)
	return resp, err
}

// frontHandler wraps the front's handler with one span per request and
// hands the span to the front's upstream attempts through the context.
func (t *tracer) frontHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, parent, ok := readRef(r.Header)
		if !ok || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		s := span{ID: t.newID(), Parent: parent, Req: req, Layer: "cluster", Name: endpointOf(r), Start: t.now()}
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), spanRef{req: req, id: s.ID})))
		s.End = t.now()
		t.add(s)
	})
}

// upstreamTransport wraps the front's upstream transport: one span per
// attempt against a shard. Shard reads gain ?trace=1, and the stage spans
// in the reply become children of the shard's span.
type upstreamTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (u upstreamTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := fromContext(req.Context())
	if !ok || !u.t.on.Load() {
		return u.base.RoundTrip(req)
	}
	ep := endpointOf(req)
	s := span{ID: u.t.newID(), Parent: ref.id, Req: ref.req, Layer: "cluster", Name: "attempt/" + ep, Shard: u.t.shardOf[req.URL.Host], Start: u.t.now()}
	req = req.Clone(req.Context())
	setRef(req.Header, ref.req, s.ID)
	if isReadEndpoint(ep) {
		q := req.URL.Query()
		q.Set("trace", "1")
		req.URL.RawQuery = q.Encode()
	}
	resp, err := u.base.RoundTrip(req)
	var body []byte
	if err == nil {
		body, err = bufferBody(resp)
	}
	s.End, s.Err = u.t.now(), err != nil
	u.t.add(s)
	if err == nil && resp.StatusCode == http.StatusOK && isReadEndpoint(ep) {
		shardSpan, _ := strconv.ParseUint(resp.Header.Get(hdrSpan), 10, 64)
		u.t.addReply(ep, resp.Header.Get("X-Cache"), body, ref.req, shardSpan)
	}
	return resp, err
}

// addReply records the stage spans and solve count of one shard read.
func (t *tracer) addReply(ep, xcache string, body []byte, req, parent uint64) {
	var doc struct {
		Trace   []server.TraceSpan `json:"trace"`
		Pruned  bool               `json:"pruned"`
		Results []struct {
			Cache string `json:"cache"`
		} `json:"results"`
	}
	if json.Unmarshal(body, &doc) != nil {
		return
	}
	var rep shardReply
	switch ep {
	case "batch", "candidates":
		for _, r := range doc.Results {
			if r.Cache == "miss" {
				rep.solves++
			}
		}
	default:
		if xcache == "miss" {
			rep.solves = 1
		}
	}
	rep.topkMiss = ep == "topk" && xcache == "miss"
	rep.pruned = rep.topkMiss && doc.Pruned
	t.mu.Lock()
	defer t.mu.Unlock()
	t.replies = append(t.replies, rep)
	for _, st := range doc.Trace {
		us := int64(st.Ms * 1000)
		t.spans = append(t.spans, span{ID: t.newID(), Parent: parent, Req: req, Layer: "core", Name: st.Span, End: us})
	}
}

// countingWriter counts the bytes of a response body.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// shardHandler wraps one shard's handler with one span per traced request.
// The span ID goes back in a response header so the front's attempt can
// parent the reply's stage spans under it.
func (t *tracer) shardHandler(id string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, parent, ok := readRef(r.Header)
		if !ok || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		s := span{ID: t.newID(), Parent: parent, Req: req, Layer: "server", Name: endpointOf(r), Shard: id, Start: t.now()}
		w.Header().Set(hdrSpan, strconv.FormatUint(s.ID, 10))
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		s.End, s.Bytes, s.Cache = t.now(), cw.n, w.Header().Get("X-Cache")
		t.add(s)
	})
}

// traceView is a finished trace: spans indexed by ID with their children.
type traceView struct {
	spans    []span
	children map[uint64][]int
	replies  []shardReply
}

// finish lays the stage spans out under their shard spans and indexes the
// trace. A hedge the front abandoned may still record its attempt after
// the phase; finish takes a consistent copy, which such a span may miss.
func (t *tracer) finish() *traceView {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	replies := append([]shardReply(nil), t.replies...)
	t.mu.Unlock()
	v := &traceView{spans: spans, children: make(map[uint64][]int), replies: replies}
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	cursor := make(map[uint64]int64) // next free start under each shard span
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		if s.Layer == "core" {
			at, seen := cursor[s.Parent]
			if !seen {
				at = spans[p].Start
			}
			s.Start, s.End = at, at+s.End
			cursor[s.Parent] = s.End
		}
		v.children[s.Parent] = append(v.children[s.Parent], i)
	}
	return v
}

// selfTime is a span's duration minus the part its children cover.
func (v *traceView) selfTime(i int) int64 {
	s := v.spans[i]
	kids := v.children[s.ID]
	if len(kids) == 0 {
		return s.dur()
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		c := v.spans[k]
		iv = append(iv, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered, curS, curE int64
	curS, curE = iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > curE {
			covered += max(0, curE-curS)
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	covered += max(0, curE-curS)
	return s.dur() - covered
}

// spanFileShare keeps the span file to every span of one request in 2^3:
// a traced hot-read half records ≈400k spans, ≈55 MB as JSON lines. The
// per-layer metrics use every span.
const spanFileShare = 3

// writeSpans writes the spans of a hash-chosen share of the requests, one
// JSON object per line.
func (v *traceView) writeSpans(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range v.spans {
		if (s.Req*0x9E3779B97F4A7C15)>>(64-spanFileShare) != 0 {
			continue
		}
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
