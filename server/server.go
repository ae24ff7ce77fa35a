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

	// DefaultKernel is the query-kernel layout spec applied to graphs
	// registered over the API without an explicit ?kernel= choice: "" or
	// "auto" (per-matrix heuristic), "csr", "hybrid", "sell", "parallel".
	// Set from the bearserve -kernel flag; see internal/sparse/kernel.
	DefaultKernel string

	// DefaultOrdering is the reordering engine applied to graphs
	// registered over the API without an explicit ?ordering= choice: ""
	// or "slashburn" (the paper's), "mindeg", "nd". Set from the
	// bearserve -ordering flag; see internal/ordering.
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

	// vecs pools the graph's n-length score vectors (*[]float64) that
	// cache misses solve into and rank in place; see borrowVec.
	vecs sync.Pool
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
//	POST   /v1/graphs/{name}/edges    (body: {"op":"add","u":1,"v":2,"w":1})
//	POST   /v1/graphs/{name}/rebuild  (?async=1 for a non-blocking rebuild)
//	POST   /v1/snapshot               (persist the registry to SnapshotPath)
//	GET    /v1/stats                  (registry size + result-cache counters)
//	GET    /metrics                   (Prometheus text format; EnableMetrics)
//
// Read endpoints answer through the epoch-keyed result cache and set an
// X-Cache header (hit, miss, or coalesced — the request shared another
// in-flight solve). Query endpoints accept ?trace=1 to include a
// per-stage solver timing breakdown in the response, and ?refine=<tol> to
// answer through iterative refinement against the retained exact operator
// (recovering exact-level accuracy from a drop-tolerance-degraded index;
// requires no pending updates).
//
// All /v1 routes run behind admission control (503 + Retry-After under
// overload) and panic recovery; /healthz, /readyz, and /metrics bypass
// admission so probes and scrapes answer even when the server is
// saturated.
func (s *Server) Handler() http.Handler {
	api := http.NewServeMux()
	api.HandleFunc("GET /v1/graphs", s.instrument("list", s.handleList))
	api.HandleFunc("PUT /v1/graphs/{name}", s.instrument("put", s.handlePut))
	api.HandleFunc("GET /v1/graphs/{name}", s.instrument("graph_stats", s.handleStats))
	api.HandleFunc("DELETE /v1/graphs/{name}", s.instrument("delete", s.handleDelete))
	api.HandleFunc("GET /v1/graphs/{name}/export", s.instrument("export", s.handleExport))
	api.HandleFunc("PUT /v1/graphs/{name}/import", s.instrument("import", s.handleImport))
	api.HandleFunc("GET /v1/graphs/{name}/query", s.instrument("query", s.handleQuery))
	api.HandleFunc("GET /v1/graphs/{name}/accuracy", s.instrument("accuracy", s.handleAccuracy))
	api.HandleFunc("GET /v1/graphs/{name}/pagerank", s.instrument("pagerank", s.handlePageRank))
	api.HandleFunc("POST /v1/graphs/{name}/ppr", s.instrument("ppr", s.handlePPR))
	api.HandleFunc("POST /v1/graphs/{name}/batch", s.instrument("batch", s.handleBatch))
	api.HandleFunc("GET /v1/graphs/{name}/topk", s.instrument("topk", s.handleTopK))
	api.HandleFunc("POST /v1/graphs/{name}/candidates", s.instrument("candidates", s.handleCandidates))
	api.HandleFunc("POST /v1/graphs/{name}/edges", s.instrument("edges", s.handleEdges))
	api.HandleFunc("POST /v1/graphs/{name}/rebuild", s.instrument("rebuild", s.handleRebuild))
	api.HandleFunc("POST /v1/snapshot", s.instrument("snapshot", s.handleSnapshot))
	api.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleServerStats))

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	if s.EnableMetrics {
		mux.HandleFunc("GET /metrics", s.handleMetrics)
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

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
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
	opts.Kernel = s.DefaultKernel
	if v := q.Get("kernel"); v != "" {
		// Validity is checked by Preprocess before any work happens, so an
		// unknown layout comes back as a clean 400 below.
		opts.Kernel = v
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

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.lookup(name)
	if !ok {
		writeError(w, errNotFound(name))
		return
	}
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

// ScoredNode is one ranked result.
type ScoredNode struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

func topResults(scores []float64, top int) []ScoredNode {
	if top <= 0 {
		top = 10
	}
	// Clamp to the score vector so an absurd requested count cannot drive
	// the ranking loop and response allocation off a cliff.
	if top > len(scores) {
		top = len(scores)
	}
	ids := bear.TopK(scores, top)
	out := make([]ScoredNode, len(ids))
	for i, u := range ids {
		out[i] = ScoredNode{Node: u, Score: scores[u]}
	}
	return out
}

// parseTop reads the ?top= parameter, defaulting to 10 and clamping to the
// graph's node count n (?top=1000000000 returns every node, not an error).
func parseTop(r *http.Request, n int) (int, error) {
	v := r.URL.Query().Get("top")
	if v == "" {
		return 10, nil
	}
	top, err := strconv.Atoi(v)
	if err != nil || top <= 0 {
		return 0, errBadRequest("top %q must be a positive integer", v)
	}
	if top > n {
		top = n
	}
	return top, nil
}

// parseRefine reads the ?refine=<tol> parameter shared by the query, ppr,
// and batch endpoints: 0 (or absent) answers through the plain solver,
// a positive tolerance answers through iterative refinement against the
// retained exact H until the relative residual falls below it.
func parseRefine(r *http.Request) (float64, error) {
	v := r.URL.Query().Get("refine")
	if v == "" {
		return 0, nil
	}
	tol, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(tol) || math.IsInf(tol, 0) || tol < 0 {
		return 0, errBadRequest("refine %q must be a finite non-negative tolerance", v)
	}
	return tol, nil
}

// refineGate rejects parameter combinations the refined path cannot serve:
// refinement verifies against the preprocessed matrices, so pending dynamic
// updates (answered through the Woodbury correction, which H knows nothing
// about) require a rebuild first — the same restriction effective
// importance has.
func refineGate(e *entry, refine float64) error {
	if refine > 0 && e.dyn.PendingNodes() > 0 {
		return errBadRequest("refined queries require a rebuild after updates")
	}
	return nil
}

// refineOne answers one starting distribution through iterative refinement
// and records the refinement metrics (queries, sweeps, final residual).
func (s *Server) refineOne(ctx context.Context, e *entry, q []float64, tol float64) ([]float64, bear.RefineStats, error) {
	dst := make([]float64, len(q))
	stats, err := e.dyn.Precomputed().QueryRefinedCtx(ctx, dst, q, tol, 0, nil)
	if err != nil {
		return nil, stats, err
	}
	s.observeRefine(stats)
	return dst, stats, nil
}

// refineSolve is refineOne without the stats, shaped for cachedSolve's
// solve closure; it runs only on cache misses, so hits do not re-count.
func (s *Server) refineSolve(ctx context.Context, e *entry, q []float64, tol float64) ([]float64, error) {
	dst, _, err := s.refineOne(ctx, e, q, tol)
	return dst, err
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.lookup(name)
	if !ok {
		writeError(w, errNotFound(name))
		return
	}
	seedStr := r.URL.Query().Get("seed")
	seed, err := strconv.Atoi(seedStr)
	if err != nil {
		writeError(w, errBadRequest("seed %q must be an integer", seedStr))
		return
	}
	top, err := parseTop(r, e.dyn.Graph().N())
	if err != nil {
		writeError(w, err)
		return
	}
	useEI := r.URL.Query().Get("ei") != ""
	if useEI && e.dyn.PendingNodes() > 0 {
		writeError(w, errBadRequest("effective importance requires a rebuild after updates"))
		return
	}
	refine, err := parseRefine(r)
	if err != nil {
		writeError(w, err)
		return
	}
	if refine > 0 && useEI {
		writeError(w, errBadRequest("refine cannot be combined with ei: effective importance has no residual to verify"))
		return
	}
	if err := refineGate(e, refine); err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	ctx, tr, debug := s.traceContext(ctx, r)
	var ei byte
	if useEI {
		ei = 1
	}
	// Keep this key shape in sync with handleBatch's per-seed probe, which
	// must hit the same entries.
	hash := e.hasher("query").Int(seed).Byte(ei).Float64(refine).Int(top).Sum()
	start := time.Now()
	res, status, err := s.cachedSolve(ctx, e, hash, func(ctx context.Context) (*answer, error) {
		// The plain solve ranks a pooled vector; effective importance and
		// refinement produce fresh vectors of their own.
		var scores []float64
		var err error
		switch {
		case useEI:
			scores, err = e.dyn.Precomputed().QueryEffectiveImportanceCtx(ctx, seed)
		case refine > 0:
			p := e.dyn.Precomputed()
			if seed < 0 || seed >= p.N {
				return nil, fmt.Errorf("seed %d out of range [0,%d)", seed, p.N)
			}
			q := make([]float64, p.N)
			q[seed] = 1
			scores, err = s.refineSolve(ctx, e, q, refine)
		default:
			return e.solvePooled(top, func(dst []float64) error {
				return e.dyn.QueryToCtx(ctx, dst, seed)
			})
		}
		if err != nil {
			return nil, err
		}
		return &answer{results: topResults(scores, top)}, nil
	})
	if err != nil {
		writeError(w, queryError(err))
		return
	}
	s.logSlow("query", name, fmt.Sprintf("seed=%d", seed), status, time.Since(start), tr)
	w.Header().Set("X-Cache", status)
	resp := map[string]interface{}{
		"graph":   name,
		"seed":    seed,
		"results": res.results,
	}
	if debug {
		resp["trace"] = traceSpans(tr)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePageRank(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.lookup(name)
	if !ok {
		writeError(w, errNotFound(name))
		return
	}
	n := e.dyn.Graph().N()
	top, err := parseTop(r, n)
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	ctx, tr, debug := s.traceContext(ctx, r)
	hash := e.hasher("pagerank").Int(top).Sum()
	start := time.Now()
	res, status, err := s.cachedSolve(ctx, e, hash, func(ctx context.Context) (*answer, error) {
		// The uniform starting vector is solved in place.
		return e.solvePooled(top, func(q []float64) error {
			for i := range q {
				q[i] = 1 / float64(n)
			}
			return e.dyn.QueryDistToCtx(ctx, q, q)
		})
	})
	if err != nil {
		writeError(w, queryError(err))
		return
	}
	s.logSlow("pagerank", name, fmt.Sprintf("top=%d", top), status, time.Since(start), tr)
	w.Header().Set("X-Cache", status)
	resp := map[string]interface{}{
		"graph":   name,
		"results": res.results,
	}
	if debug {
		resp["trace"] = traceSpans(tr)
	}
	writeJSON(w, http.StatusOK, resp)
}

// queryError classifies a failure out of the solver: context errors keep
// their identity (so writeError maps them to 504/499) while anything else
// is the caller's fault and reports as 400.
func queryError(err error) error {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return err
	}
	return errBadRequest("query: %v", err)
}

type pprRequest struct {
	Seeds map[string]float64 `json:"seeds"`
	Top   int                `json:"top"`
}

func (s *Server) handlePPR(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.lookup(name)
	if !ok {
		writeError(w, errNotFound(name))
		return
	}
	var req pprRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.MaxBodyBytes)).Decode(&req); err != nil {
		writeError(w, errBadRequest("decoding body: %v", err))
		return
	}
	if len(req.Seeds) == 0 {
		writeError(w, errBadRequest("seeds must not be empty"))
		return
	}
	n := e.dyn.Graph().N()
	// The starting vector is borrowed: a miss solves in place over it.
	qv := e.borrowVec()
	defer e.vecs.Put(qv)
	q := *qv
	clear(q)
	for k, weight := range req.Seeds {
		node, err := strconv.Atoi(k)
		if err != nil || node < 0 || node >= n {
			writeError(w, errBadRequest("seed %q out of range [0,%d)", k, n))
			return
		}
		if weight < 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
			writeError(w, errBadRequest("seed %q weight %v must be a finite non-negative number", k, weight))
			return
		}
		q[node] = weight
	}
	// Per-weight validation allows 0 (a harmless no-op entry), but a map
	// whose weights are *all* zero describes no starting distribution at
	// all — solving it would cache and return an all-zero vector. Reject
	// before the cache lookup.
	allZero := true
	for _, weight := range q {
		if weight != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		writeError(w, errBadRequest("seed weights must not all be zero"))
		return
	}
	top := req.Top
	if top <= 0 {
		top = 10
	}
	if top > n {
		top = n
	}
	refine, err := parseRefine(r)
	if err != nil {
		writeError(w, err)
		return
	}
	if err := refineGate(e, refine); err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	ctx, tr, debug := s.traceContext(ctx, r)
	// Fold the normalized distribution (node-order, zeros skipped) so the
	// hash is independent of JSON key order and duplicate spellings.
	h := e.hasher("ppr")
	for node, weight := range q {
		if weight != 0 {
			h = h.Int(node).Float64(weight)
		}
	}
	hash := h.Float64(refine).Int(top).Sum()
	start := time.Now()
	res, status, err := s.cachedSolve(ctx, e, hash, func(ctx context.Context) (*answer, error) {
		scores := q
		var err error
		if refine > 0 {
			scores, err = s.refineSolve(ctx, e, q, refine)
		} else {
			err = e.dyn.QueryDistToCtx(ctx, q, q)
		}
		if err != nil {
			return nil, err
		}
		return &answer{results: topResults(scores, top)}, nil
	})
	if err != nil {
		writeError(w, queryError(err))
		return
	}
	s.logSlow("ppr", name, fmt.Sprintf("seeds=%d", len(req.Seeds)), status, time.Since(start), tr)
	w.Header().Set("X-Cache", status)
	resp := map[string]interface{}{
		"graph":   name,
		"results": res.results,
	}
	if debug {
		resp["trace"] = traceSpans(tr)
	}
	writeJSON(w, http.StatusOK, resp)
}

type edgeRequest struct {
	Op      string    `json:"op"` // add, remove, replace
	U       int       `json:"u"`
	V       int       `json:"v"`
	W       float64   `json:"w"`
	Dst     []int     `json:"dst"`     // replace only
	Weights []float64 `json:"weights"` // replace only
}

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.lookup(name)
	if !ok {
		writeError(w, errNotFound(name))
		return
	}
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

func (s *Server) handleRebuild(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.lookup(name)
	if !ok {
		writeError(w, errNotFound(name))
		return
	}
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
