// Package server exposes BEAR as an HTTP service: upload a graph once, pay
// preprocessing once, then answer RWR / personalized-PageRank / effective-
// importance queries over REST. Incremental edge updates are served
// exactly through the Woodbury layer and can be folded in with an explicit
// rebuild. All state is in memory; persistence is the caller's concern
// (indexes can be exported with the bear CLI).
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bear"
	"bear/internal/resultcache"
)

// Server is a registry of preprocessed graphs behind an http.Handler. The
// zero value is not usable; construct with New.
type Server struct {
	mu     sync.RWMutex
	graphs map[string]*entry

	// RebuildThreshold folds pending dynamic updates into a fresh
	// preprocessing pass automatically once this many nodes are dirty.
	// Zero disables automatic rebuilds. Threshold-triggered rebuilds run in
	// auto mode: incremental when the pending updates qualify, full
	// otherwise.
	RebuildThreshold int

	// RebuildMaxChurn, when positive, overrides the auto-mode incremental
	// rebuild churn threshold (the largest dirty-node fraction rebuilt
	// incrementally) for every graph registered with this server. Zero
	// keeps the engine default (0.10). Set from the bearserve
	// -rebuild-churn flag.
	RebuildMaxChurn float64

	// MaxBodyBytes caps upload sizes (default 256 MiB).
	MaxBodyBytes int64

	// MaxConcurrent bounds in-flight /v1 requests (default 256). Requests
	// beyond the bound wait up to AcquireTimeout for a slot and are then
	// shed with 503 + Retry-After. Zero or negative disables admission
	// control. Health checks bypass the bound.
	MaxConcurrent int

	// AcquireTimeout is how long a request waits for an admission slot
	// before being shed (default 250ms).
	AcquireTimeout time.Duration

	// RetryAfter is the hint sent with shed requests (default 1s; rounded
	// up to whole seconds for the Retry-After header).
	RetryAfter time.Duration

	// QueryTimeout bounds each query's compute time; queries exceeding it
	// return 504. Zero disables the per-request deadline (client
	// disconnects still cancel the work either way).
	QueryTimeout time.Duration

	// SnapshotPath is where POST /v1/snapshot persists the registry.
	// Empty disables the endpoint.
	SnapshotPath string

	// ErrorLog receives panic stacks and background-rebuild failures
	// (default: the log package's standard logger).
	ErrorLog *log.Logger

	// CacheMaxBytes bounds the result cache (default 64 MiB). Zero or
	// negative disables caching; identical concurrent queries still
	// coalesce into one solve either way.
	CacheMaxBytes int64

	// CacheTTL expires cached results after this duration (default 0 = no
	// expiry). The cache is already exact without a TTL — every update and
	// rebuild makes stale entries unreachable by key — so a TTL is only a
	// memory-pressure lever, not a correctness one.
	CacheTTL time.Duration

	// EnableMetrics serves the Prometheus scrape endpoint at GET /metrics
	// (default true via New). Metrics are collected either way — disabling
	// only unmaps the endpoint.
	EnableMetrics bool

	// TraceSlow, when positive, traces every query's solver stages and logs
	// a structured span breakdown to ErrorLog for queries slower than this
	// threshold. Zero disables slow-query tracing; ?trace=1 per-request
	// traces still work.
	TraceSlow time.Duration

	// DefaultOrdering is the reordering engine applied to graphs
	// registered over the API without an explicit ?ordering= choice: ""
	// or "slashburn" (the paper's), "mindeg". Set from the bearserve
	// -ordering flag; see internal/ordering.
	DefaultOrdering string

	sem         chan struct{}
	semOnce     sync.Once
	cache       *resultcache.Cache
	cacheOnce   sync.Once
	flight      resultcache.Flight
	metricsOnce sync.Once
	srvMetrics  *serverMetrics

	// restoring is set while ReadSnapshot replaces the registry, flipping
	// GET /readyz to "restoring" so traffic routers drain this instance
	// instead of racing the swap.
	restoring atomic.Bool
}

type entry struct {
	dyn     *bear.Dynamic
	opts    bear.Options
	created time.Time
	gen     uint64 // registration generation; part of every cache key
}

// New returns an empty server with defaults.
func New() *Server {
	return &Server{
		graphs:           make(map[string]*entry),
		RebuildThreshold: 64,
		MaxBodyBytes:     256 << 20,
		MaxConcurrent:    256,
		AcquireTimeout:   250 * time.Millisecond,
		RetryAfter:       time.Second,
		CacheMaxBytes:    64 << 20,
		EnableMetrics:    true,
	}
}

// Handler returns the HTTP routes:
//
//	GET    /healthz                   (liveness: the process serves HTTP)
//	GET    /readyz                    (readiness: ≥1 graph loaded, not mid-restore)
//	GET    /v1/graphs
//	PUT    /v1/graphs/{name}?c=&drop=&laplacian=   (body: edge list or MatrixMarket)
//	GET    /v1/graphs/{name}
//	DELETE /v1/graphs/{name}
//	GET    /v1/graphs/{name}/export   (stream the graph's dynamic state blob)
//	PUT    /v1/graphs/{name}/import   (register a graph from an exported blob)
//	GET    /v1/graphs/{name}/query?seed=&top=&ei=&refine=
//	GET    /v1/graphs/{name}/accuracy?k=&tol=   (sampled residual/cosine self-check)
//	GET    /v1/graphs/{name}/pagerank?top=
//	POST   /v1/graphs/{name}/ppr?refine=      (body: {"seeds":{"3":0.5},"top":10})
//	POST   /v1/graphs/{name}/batch?refine=    (body: {"seeds":[1,2,3],"top":10})
//	GET    /v1/graphs/{name}/topk?seed=&k=
//	POST   /v1/graphs/{name}/candidates       (body: {"seeds":[1,2,3],"k":10})
//	POST   /v1/graphs/{name}/edges    (body: {"op":"add","u":1,"v":2,"w":1})
//	POST   /v1/graphs/{name}/rebuild  (?async=1 for a non-blocking rebuild)
//	POST   /v1/snapshot               (persist the registry to SnapshotPath)
//	GET    /metrics                   (Prometheus text format; EnableMetrics)
//
// Every /v1/graphs/{name} route but the two uploads (PUT and import)
// answers 404 with a JSON error when no graph is registered under that
// name. The six ranked reads (query, topk, pagerank, ppr, batch,
// candidates) answer through the epoch-keyed result cache and set an
// X-Cache header (hit, miss, or coalesced — the request shared another
// in-flight solve). They accept ?trace=1 to include a per-stage solver
// timing breakdown in the response; query, ppr and batch also accept
// ?refine=<tol> to answer through iterative refinement against the
// retained exact operator (recovering exact-level accuracy from a
// drop-tolerance-degraded index; requires no pending updates).
//
// All /v1 routes run behind admission control (503 + Retry-After under
// overload) and panic recovery; /healthz, /readyz, and /metrics bypass
// admission so probes and scrapes answer even when the server is
// saturated.
func (s *Server) Handler() http.Handler {
	api := http.NewServeMux()
	// A graph-scoped route's handler is handed the graph its {name} names.
	graph := func(pattern, endpoint string, h graphHandler) {
		api.HandleFunc(pattern, s.instrument(endpoint, s.withGraph(h)))
	}
	api.HandleFunc("GET /v1/graphs", s.instrument("list", s.handleList))
	api.HandleFunc("PUT /v1/graphs/{name}", s.instrument("put", s.handlePut))
	graph("GET /v1/graphs/{name}", "graph_stats", s.handleStats)
	api.HandleFunc("DELETE /v1/graphs/{name}", s.instrument("delete", s.handleDelete))
	graph("GET /v1/graphs/{name}/export", "export", s.handleExport)
	api.HandleFunc("PUT /v1/graphs/{name}/import", s.instrument("import", s.handleImport))
	graph("GET /v1/graphs/{name}/query", "query", s.handleQuery)
	graph("GET /v1/graphs/{name}/accuracy", "accuracy", s.handleAccuracy)
	graph("GET /v1/graphs/{name}/pagerank", "pagerank", s.handlePageRank)
	graph("POST /v1/graphs/{name}/ppr", "ppr", s.handlePPR)
	graph("POST /v1/graphs/{name}/batch", "batch", s.handleBatch)
	graph("GET /v1/graphs/{name}/topk", "topk", s.handleTopK)
	graph("POST /v1/graphs/{name}/candidates", "candidates", s.handleCandidates)
	graph("POST /v1/graphs/{name}/edges", "edges", s.handleEdges)
	graph("POST /v1/graphs/{name}/rebuild", "rebuild", s.handleRebuild)
	api.HandleFunc("POST /v1/snapshot", s.instrument("snapshot", s.handleSnapshot))

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	if s.EnableMetrics {
		mux.Handle("GET /metrics", s.metrics().reg.Handler())
	}
	mux.Handle("/v1/", s.withAdmission(api))
	return s.withRecovery(mux)
}

// queryContext derives the context a query computes under: the request's
// (so a disconnected client cancels the solve) plus the server's
// per-request deadline when configured.
func (s *Server) queryContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.QueryTimeout > 0 {
		return context.WithTimeout(r.Context(), s.QueryTimeout)
	}
	return r.Context(), func() {}
}

// Add preprocesses g and registers it under name, replacing any previous
// graph with that name. It is the programmatic equivalent of PUT.
func (s *Server) Add(name string, g *bear.Graph, opts bear.Options) error {
	return s.AddCtx(context.Background(), name, g, opts)
}

// AddCtx is Add honoring cancellation on ctx during the preprocessing
// pass. The server always retains the exact system matrix H alongside the
// factors (opts.KeepH is forced on) so the refined-query and accuracy
// endpoints work on every registered graph; the cost is one extra |E|-sized
// matrix per graph.
func (s *Server) AddCtx(ctx context.Context, name string, g *bear.Graph, opts bear.Options) error {
	if err := validateName(name); err != nil {
		return err
	}
	opts.KeepH = true
	dyn, err := bear.NewDynamicCtx(ctx, g, opts)
	if err != nil {
		return err
	}
	s.applyRebuildPolicy(dyn)
	e := &entry{dyn: dyn, opts: opts, created: time.Now(), gen: nextGen.Add(1)}
	s.mu.Lock()
	s.graphs[name] = e
	s.mu.Unlock()
	// Registered outside s.mu: the registry must never be entered while
	// holding the graph lock (see metrics.go). Re-registering a name
	// rebinds the gauge callbacks to the new Dynamic.
	s.exportGraphMetrics(name, e)
	return nil
}

// applyRebuildPolicy pushes the server-wide auto-rebuild thresholds onto
// a graph entering the registry, whatever door it came through (API
// registration, snapshot restore, cluster transfer).
func (s *Server) applyRebuildPolicy(dyn *bear.Dynamic) {
	if s.RebuildMaxChurn > 0 {
		dyn.SetRebuildPolicy(bear.RebuildPolicy{MaxChurnFraction: s.RebuildMaxChurn})
	}
}

func validateName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("graph name must be 1-128 characters")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("graph name contains invalid character %q", r)
		}
	}
	return nil
}

func (s *Server) lookup(name string) (*entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.graphs[name]
	return e, ok
}

// graphHandler serves one route of the graph registered under name.
type graphHandler func(w http.ResponseWriter, r *http.Request, name string, e *entry)

// withGraph looks up the graph a route's {name} names and hands it to h,
// answering 404 when no graph is registered under that name.
func (s *Server) withGraph(h graphHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		e, ok := s.lookup(name)
		if !ok {
			writeError(w, errNotFound(name))
			return
		}
		h(w, r, name, e)
	}
}

type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func errBadRequest(format string, args ...interface{}) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func errNotFound(name string) error {
	return &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("graph %q not found", name)}
}

// writeJSON answers status with v encoded by encoding/json. The body is
// encoded before the status goes out, so a value encoding/json rejects
// (a NaN score, say) answers 500 with a JSON error instead of the status
// with an empty body.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	b, err := json.Marshal(v)
	if err != nil {
		writeEncodeError(w, err)
		return
	}
	writeBody(w, status, append(b, '\n'))
}

// writeEncodeError answers 500 for a response body that failed to encode.
func writeEncodeError(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "encoding response: " + err.Error()})
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write means the client went away
}

func writeError(w http.ResponseWriter, err error) {
	var he *httpError
	switch {
	case errors.As(err, &he):
		writeJSON(w, he.status, map[string]string{"error": he.msg})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout,
			map[string]string{"error": "query deadline exceeded"})
	case errors.Is(err, context.Canceled):
		writeJSON(w, StatusClientClosedRequest,
			map[string]string{"error": "client closed request"})
	case errors.Is(err, bear.ErrRebuildInProgress):
		writeJSON(w, http.StatusConflict,
			map[string]string{"error": "rebuild already in progress"})
	case errors.Is(err, bear.ErrIncrementalNotApplicable):
		// The pending updates disqualify the demanded mode — a state
		// conflict, not a server fault; retry with mode=auto or mode=full.
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
	}
}

// GraphInfo is the JSON stats document for one registered graph.
type GraphInfo struct {
	Name      string    `json:"name"`
	Nodes     int       `json:"nodes"`
	Edges     int       `json:"edges"`
	Spokes    int       `json:"spokes"`
	Hubs      int       `json:"hubs"`
	Blocks    int       `json:"blocks"`
	NNZ       int64     `json:"precomputed_nnz"`
	Bytes     int64     `json:"precomputed_bytes"`
	RestartC  float64   `json:"restart_probability"`
	DropTol   float64   `json:"drop_tolerance"`
	Ordering  string    `json:"ordering"`
	Pending   int       `json:"pending_updates"`
	Rebuild   bool      `json:"rebuilding"`
	CreatedAt time.Time `json:"created_at"`
}

func (e *entry) info(name string) GraphInfo {
	p := e.dyn.Precomputed()
	g := e.dyn.Graph()
	return GraphInfo{
		Name:      name,
		Nodes:     g.N(),
		Edges:     g.M(),
		Spokes:    p.N1,
		Hubs:      p.N2,
		Blocks:    len(p.Blocks),
		NNZ:       p.NNZ(),
		Bytes:     p.Bytes(),
		RestartC:  p.C,
		DropTol:   e.opts.DropTol,
		Ordering:  bear.NormalizeOrdering(e.opts.Ordering),
		Pending:   e.dyn.PendingNodes(),
		Rebuild:   e.dyn.RebuildInProgress(),
		CreatedAt: e.created,
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.graphs))
	for name := range s.graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	infos := make([]GraphInfo, 0, len(names))
	for _, name := range names {
		infos = append(infos, s.graphs[name].info(name))
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]interface{}{"graphs": infos})
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := validateName(name); err != nil {
		writeError(w, errBadRequest("%v", err))
		return
	}
	opts := bear.Options{}
	q := r.URL.Query()
	if v := q.Get("c"); v != "" {
		c, err := strconv.ParseFloat(v, 64)
		// ParseFloat accepts "NaN", which slips through plain range
		// comparisons (NaN fails every one) — reject non-finite explicitly.
		if err != nil || math.IsNaN(c) || c <= 0 || c >= 1 {
			writeError(w, errBadRequest("restart probability %q must be in (0,1)", v))
			return
		}
		opts.C = c
	}
	if v := q.Get("drop"); v != "" {
		d, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
			writeError(w, errBadRequest("drop tolerance %q must be a finite non-negative number", v))
			return
		}
		opts.DropTol = d
	}
	if v := q.Get("laplacian"); v != "" {
		lap, err := strconv.ParseBool(v)
		if err != nil {
			writeError(w, errBadRequest("laplacian %q must be a boolean", v))
			return
		}
		opts.Laplacian = lap
	}
	opts.Ordering = s.DefaultOrdering
	if v := q.Get("ordering"); v != "" {
		// Unknown engines are rejected by Preprocess up front → 400 below.
		opts.Ordering = v
	}
	body := http.MaxBytesReader(w, r.Body, s.MaxBodyBytes)
	g, err := sniffLoad(body)
	if err != nil {
		writeError(w, errBadRequest("parsing graph: %v", err))
		return
	}
	// Preprocess under the request context: a disconnected client aborts
	// the pass between Algorithm-1 stages instead of burning it to
	// completion for nobody. Context errors keep their identity so
	// writeError maps them to the 499/504 paths.
	if err := s.AddCtx(r.Context(), name, g, opts); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			writeError(w, err)
			return
		}
		writeError(w, errBadRequest("preprocessing: %v", err))
		return
	}
	e, _ := s.lookup(name)
	writeJSON(w, http.StatusCreated, e.info(name))
}

// sniffLoad parses either an edge list or a MatrixMarket body. An empty or
// unreadable body is rejected here so the caller can return a clean 400
// instead of handing a broken reader to the edge-list parser.
func sniffLoad(r io.Reader) (*bear.Graph, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len("%%MatrixMarket"))
	if len(head) == 0 {
		// A short-but-valid body yields head bytes alongside io.EOF; no
		// bytes at all means the body is empty or the read failed outright.
		if err == nil || err == io.EOF {
			return nil, errors.New("empty request body")
		}
		return nil, fmt.Errorf("reading request body: %w", err)
	}
	if strings.EqualFold(string(head), "%%MatrixMarket") {
		return bear.LoadMatrixMarket(br)
	}
	return bear.LoadEdgeList(br)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, name string, e *entry) {
	writeJSON(w, http.StatusOK, e.info(name))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	_, ok := s.graphs[name]
	delete(s.graphs, name)
	s.mu.Unlock()
	if !ok {
		writeError(w, errNotFound(name))
		return
	}
	s.dropGraphMetrics(name)
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

type edgeRequest struct {
	Op      string    `json:"op"` // add, remove, replace
	U       int       `json:"u"`
	V       int       `json:"v"`
	W       float64   `json:"w"`
	Dst     []int     `json:"dst"`     // replace only
	Weights []float64 `json:"weights"` // replace only
}

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request, name string, e *entry) {
	var req edgeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.MaxBodyBytes)).Decode(&req); err != nil {
		writeError(w, errBadRequest("decoding body: %v", err))
		return
	}
	// Mirror the core layer's weight validation (finite and non-negative —
	// +Inf and NaN poison row normalization into NaN scores) so malformed
	// updates fail with a clear 400 before touching the graph.
	var err error
	switch req.Op {
	case "add":
		weight := req.W
		if weight == 0 {
			weight = 1
		}
		if weight < 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
			writeError(w, errBadRequest("edge weight %g must be finite and non-negative", weight))
			return
		}
		err = e.dyn.AddEdge(req.U, req.V, weight)
	case "remove":
		err = e.dyn.RemoveEdge(req.U, req.V)
	case "replace":
		for _, weight := range req.Weights {
			if weight < 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
				writeError(w, errBadRequest("edge weight %g must be finite and non-negative", weight))
				return
			}
		}
		err = e.dyn.UpdateNode(req.U, req.Dst, req.Weights)
	default:
		writeError(w, errBadRequest("op %q must be add, remove, or replace", req.Op))
		return
	}
	if err != nil {
		writeError(w, errBadRequest("%v", err))
		return
	}
	if s.RebuildThreshold > 0 && e.dyn.PendingNodes() >= s.RebuildThreshold {
		// Fold the updates in the background; this request — and every
		// query meanwhile — keeps serving the current Woodbury-corrected
		// state and returns immediately.
		s.startRebuild(name, e, bear.RebuildAuto)
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"graph":      name,
		"pending":    e.dyn.PendingNodes(),
		"rebuilding": e.dyn.RebuildInProgress(),
	})
}

// startRebuild kicks off a background rebuild of e unless one is already
// running. Queries continue against the old snapshot for the duration;
// updates accepted meanwhile survive the swap as the new pending set.
func (s *Server) startRebuild(name string, e *entry, mode bear.RebuildMode) {
	if e.dyn.RebuildInProgress() {
		return
	}
	okC, failC := s.rebuildCounters(name)
	go func() {
		rep, err := e.dyn.RebuildCtx(context.Background(), mode)
		switch {
		case err == nil:
			okC.Inc()
			s.recordRebuildOutcome(name, rep)
		case !errors.Is(err, bear.ErrRebuildInProgress):
			failC.Inc()
			s.logf("background rebuild of %q: %v", name, err)
		}
	}()
}

func (s *Server) handleRebuild(w http.ResponseWriter, r *http.Request, name string, e *entry) {
	mode, err := bear.ParseRebuildMode(r.URL.Query().Get("mode"))
	if err != nil {
		writeError(w, errBadRequest("%v", err))
		return
	}
	if r.URL.Query().Get("async") != "" {
		s.startRebuild(name, e, mode)
		writeJSON(w, http.StatusAccepted, map[string]interface{}{
			"graph":      name,
			"mode":       string(mode),
			"rebuilding": true,
		})
		return
	}
	okC, failC := s.rebuildCounters(name)
	start := time.Now()
	rep, err := e.dyn.RebuildCtx(r.Context(), mode)
	if err != nil {
		if !errors.Is(err, bear.ErrRebuildInProgress) && !errors.Is(err, bear.ErrIncrementalNotApplicable) {
			failC.Inc()
		}
		writeError(w, err)
		return
	}
	okC.Inc()
	s.recordRebuildOutcome(name, rep)
	resp := map[string]interface{}{
		"graph":             name,
		"mode":              string(rep.Mode),
		"requested":         string(rep.Requested),
		"dirty_nodes":       rep.DirtyNodes,
		"blocks_refactored": rep.BlocksRefactored,
		"total_blocks":      rep.TotalBlocks,
		"rebuild_ms":        float64(time.Since(start).Microseconds()) / 1000,
	}
	if rep.FallbackReason != "" {
		resp["fallback_reason"] = rep.FallbackReason
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.SnapshotPath == "" {
		writeError(w, errBadRequest("server has no snapshot path configured"))
		return
	}
	s.mu.RLock()
	count := len(s.graphs)
	s.mu.RUnlock()
	if err := s.SaveSnapshot(s.SnapshotPath); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"path":   s.SnapshotPath,
		"graphs": count,
	})
}
