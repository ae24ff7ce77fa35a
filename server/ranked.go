package server

// The ranked reads: /query, /topk, /pagerank, /ppr, /batch and
// /candidates. Each handler parses its request into the cache key of
// every answer it returns and the solve that runs on a miss. One path
// then runs the rest: serveList for one answer, servePerSeed for one
// answer per seed. It applies the deadline and the trace, probes the
// cache (and the coalescer), writes the slow-query log, sets X-Cache and
// writes the body.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"

	"bear"
	"bear/internal/obsv"
	"bear/internal/resultcache"
	"bear/internal/wire"
)

// ScoredNode is one ranked result.
type ScoredNode = wire.ScoredNode

// BatchSeedResult is one seed's slot in a /batch response.
type BatchSeedResult = wire.BatchSeedResult

// CandidateSeedResult is one seed's slot in a /candidates response.
type CandidateSeedResult = wire.CandidateSeedResult

// rankedRead is a parsed ranked request: what the ranked-read path needs
// besides the slow-query log's detail, the cache keys and the solves.
// Those three are closures the path only calls, passed on their own so
// that they stay on the stack.
type rankedRead struct {
	endpoint string     // the slow-query log's endpoint name
	e        *entry     // the graph read
	q        url.Values // the query string, for ?trace=
	doc      wire.Doc   // the body; the path fills in the answers
}

// serveList answers a ranked read with one answer (/query, /topk,
// /pagerank, /ppr): the cached answer under hash, or on a miss the
// answer of solve, which concurrent identical requests share. detail
// formats the request's parameters for the slow-query log.
func (s *Server) serveList(w http.ResponseWriter, r *http.Request, rr rankedRead, detail func() string, hash uint64, solve func(context.Context) (*answer, error)) {
	ctx, cancel := s.queryContext(r)
	defer cancel()
	ctx, tr, debug := s.traceContext(ctx, rr.q)
	start := time.Now()
	res, status, err := s.cachedSolve(ctx, rr.e, hash, solve)
	if err != nil {
		writeError(w, queryError(err))
		return
	}
	s.logSlow(rr.endpoint, rr.doc.Graph, status, time.Since(start), tr, detail)
	w.Header().Set("X-Cache", status)
	rr.doc.Results, rr.doc.Fallback = res.results, res.fallback
	writeRanked(w, rr.doc, tr, debug)
}

// servePerSeed answers a ranked read with one answer per seed (/batch,
// /candidates). Every seed is probed before any is solved, so a slot's
// cache field says whether the request found that seed cached; each miss
// is then solved and cached in turn. X-Cache is hit only when every seed
// hit.
func (s *Server) servePerSeed(w http.ResponseWriter, r *http.Request, rr rankedRead, detail func() string, seeds []int, hash func(seed int) uint64, solve func(ctx context.Context, seed int) (*answer, error)) {
	ctx, cancel := s.queryContext(r)
	defer cancel()
	ctx, tr, debug := s.traceContext(ctx, rr.q)
	start := time.Now()
	cache := s.resultCache()
	// One epoch read covers the request, taken before any solve, so every
	// entry written below is safe under the fresher-than-promised rule
	// even if updates land mid-request.
	epoch := rr.e.dyn.Epoch()
	keys := make([]resultcache.Key, len(seeds))
	slots := make([]BatchSeedResult, len(seeds))
	misses := 0
	sw := tr.Start(obsv.SpanCacheLookup)
	for i, seed := range seeds {
		keys[i] = resultcache.Key{Gen: rr.e.gen, Epoch: epoch, Hash: hash(seed)}
		slots[i] = BatchSeedResult{Seed: seed, Cache: "hit"}
		if v, ok := cache.Get(keys[i]); ok {
			slots[i].Results = v.(*answer).results
		} else {
			slots[i].Cache = "miss"
			misses++
		}
	}
	sw.Stop()
	for i := range slots {
		if slots[i].Cache == "hit" {
			continue
		}
		res, err := solve(ctx, seeds[i])
		if err != nil {
			writeError(w, queryError(err))
			return
		}
		cache.Put(keys[i], res)
		slots[i].Results = res.results
	}
	status := "hit"
	if misses > 0 {
		status = "miss"
	}
	s.logSlow(rr.endpoint, rr.doc.Graph, status, time.Since(start), tr, func() string {
		return fmt.Sprintf("%s misses=%d", detail(), misses)
	})
	w.Header().Set("X-Cache", status)
	if rr.doc.Kind == wire.KindCandidates {
		rr.doc.Candidates = make([]CandidateSeedResult, len(slots))
		for i, sl := range slots {
			rr.doc.Candidates[i] = CandidateSeedResult{Seed: sl.Seed, Cache: sl.Cache, Candidates: sl.Results}
		}
	} else {
		rr.doc.Batch = slots
	}
	writeRanked(w, rr.doc, tr, debug)
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

// rankedBufs recycles the ranked handlers' response buffers; maxRankedBuf
// keeps a rare huge body (a /pagerank of every node) out of the pool.
var rankedBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxRankedBuf = 256 << 10

// writeRanked answers 200 with a ranked document, written by the wire
// appender — encoding/json's bytes without its reflection — with the
// request's trace when it asked for one (?trace=1).
func writeRanked(w http.ResponseWriter, doc wire.Doc, tr *obsv.Trace, debug bool) {
	if debug {
		doc.Trace = traceSpans(tr)
	}
	bp := rankedBufs.Get().(*[]byte)
	b, err := wire.Append((*bp)[:0], &doc)
	if err != nil {
		writeEncodeError(w, err)
	} else {
		writeBody(w, http.StatusOK, b)
	}
	if cap(b) <= maxRankedBuf {
		*bp = b
		rankedBufs.Put(bp)
	}
}

// count is every ranked read's result count: v when positive, 10 when
// no count was asked for (v ≤ 0), and never more than the graph's n
// nodes.
func count(v, n int) int {
	if v <= 0 {
		v = 10
	}
	return min(v, n)
}

// countParam reads a result count from the query string (?top= or ?k=):
// absent, it is count's default; present, a positive integer.
func countParam(q url.Values, key string, n int) (int, error) {
	v := q.Get(key)
	if v == "" {
		return count(0, n), nil
	}
	c, err := strconv.Atoi(v)
	if err != nil || c <= 0 {
		return 0, errBadRequest("%s %q must be a positive integer", key, v)
	}
	return count(c, n), nil
}

// parseSeed reads ?seed=, which must name one of the graph's n nodes.
func parseSeed(q url.Values, n int) (int, error) {
	v := q.Get("seed")
	seed, err := strconv.Atoi(v)
	if err != nil {
		return 0, errBadRequest("seed %q must be an integer", v)
	}
	if seed < 0 || seed >= n {
		return 0, errBadRequest("seed %d out of range [0,%d)", seed, n)
	}
	return seed, nil
}

// parseRefine reads the ?refine=<tol> parameter of /query, /ppr and
// /batch: 0 (or absent) answers through the plain solver, a positive
// tolerance through iterative refinement against the retained exact H
// until the relative residual falls below it. H knows nothing of pending
// updates (the Woodbury correction answers those), so a refined read
// requires a rebuild first, as effective importance does.
func parseRefine(q url.Values, e *entry) (float64, error) {
	v := q.Get("refine")
	if v == "" {
		return 0, nil
	}
	tol, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(tol) || math.IsInf(tol, 0) || tol < 0 {
		return 0, errBadRequest("refine %q must be a finite non-negative tolerance", v)
	}
	if tol > 0 && e.dyn.PendingNodes() > 0 {
		return 0, errBadRequest("refined queries require a rebuild after updates")
	}
	return tol, nil
}

// maxBatchSeeds bounds one /batch or /candidates request; larger lists
// should be split by the client so admission control and timeouts stay
// meaningful.
const maxBatchSeeds = 1024

// seedsRequest is a /batch or /candidates body: a seed list and a result
// count, top for /batch and k for /candidates.
type seedsRequest struct {
	Seeds []int `json:"seeds"`
	Top   int   `json:"top"`
	K     int   `json:"k"`
}

// parseSeedList decodes and validates a /batch or /candidates body
// against a graph of n nodes: between 1 and maxBatchSeeds seeds, each a
// node, with both counts put through count. It is a pure function of
// (body, n) so the fuzz target can drive it directly.
func parseSeedList(body io.Reader, n int) (seedsRequest, error) {
	var req seedsRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return req, errBadRequest("decoding body: %v", err)
	}
	if len(req.Seeds) == 0 {
		return req, errBadRequest("seeds must not be empty")
	}
	if len(req.Seeds) > maxBatchSeeds {
		return req, errBadRequest("batch of %d seeds exceeds the limit of %d", len(req.Seeds), maxBatchSeeds)
	}
	for _, seed := range req.Seeds {
		if seed < 0 || seed >= n {
			return req, errBadRequest("seed %d out of range [0,%d)", seed, n)
		}
	}
	req.Top, req.K = count(req.Top, n), count(req.K, n)
	return req, nil
}

// solveDist answers, on a cache miss, the top entries for the starting
// distribution that puts weights[i] on nodes[i]: the top-k solve,
// bit-identical to ranking the full score vector, or, when refine is
// positive, iterative refinement to that tolerance and then TopK.
func (s *Server) solveDist(ctx context.Context, e *entry, nodes []int, weights []float64, top int, refine float64) (*answer, error) {
	if refine > 0 {
		q := make([]float64, e.dyn.Graph().N())
		for i, v := range nodes {
			q[v] = weights[i]
		}
		scores, _, err := s.refineOne(ctx, e, q, refine)
		if err != nil {
			return nil, err
		}
		return &answer{results: topResults(scores, top)}, nil
	}
	return rankedAnswer(e.dyn.QueryDistTopKCtx(ctx, nodes, weights, top))
}

// refineOne answers one starting distribution through iterative refinement
// and records the refinement metrics (queries, sweeps, final residual).
// It runs only on cache misses, so hits do not re-count.
func (s *Server) refineOne(ctx context.Context, e *entry, q []float64, tol float64) ([]float64, bear.RefineStats, error) {
	dst := make([]float64, len(q))
	stats, err := e.dyn.Precomputed().QueryRefinedCtx(ctx, dst, q, tol, 0, nil)
	if err != nil {
		return nil, stats, err
	}
	s.observeRefine(stats)
	return dst, stats, nil
}

// rankedAnswer is a top-k solve's result as a cached answer.
func rankedAnswer(res *bear.TopKResult, err error) (*answer, error) {
	if err != nil {
		return nil, err
	}
	out := make([]ScoredNode, len(res.Nodes))
	for i, node := range res.Nodes {
		out[i] = ScoredNode{Node: node, Score: res.Scores[i]}
	}
	return &answer{results: out, fallback: res.Stats.Fallback}, nil
}

// topResults ranks a full score vector's top entries.
func topResults(scores []float64, top int) []ScoredNode {
	ids := bear.TopK(scores, top)
	out := make([]ScoredNode, len(ids))
	for i, u := range ids {
		out[i] = ScoredNode{Node: u, Score: scores[u]}
	}
	return out
}

// queryKey is the cache key of /query's answer for seed. /batch probes
// the same keys, so the two endpoints share entries.
func (e *entry) queryKey(seed int, ei bool, refine float64, top int) uint64 {
	var b byte
	if ei {
		b = 1
	}
	return e.hasher("query").Int(seed).Byte(b).Float64(refine).Int(top).Sum()
}

// handleQuery answers GET /v1/graphs/{name}/query?seed=&top=&ei=&refine=.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, name string, e *entry) {
	q := r.URL.Query()
	n := e.dyn.Graph().N()
	seed, err := parseSeed(q, n)
	if err != nil {
		writeError(w, err)
		return
	}
	top, err := countParam(q, "top", n)
	if err != nil {
		writeError(w, err)
		return
	}
	useEI := q.Get("ei") != ""
	if useEI && e.dyn.PendingNodes() > 0 {
		writeError(w, errBadRequest("effective importance requires a rebuild after updates"))
		return
	}
	refine, err := parseRefine(q, e)
	if err != nil {
		writeError(w, err)
		return
	}
	if refine > 0 && useEI {
		writeError(w, errBadRequest("refine cannot be combined with ei: effective importance has no residual to verify"))
		return
	}
	rr := rankedRead{endpoint: "query", e: e, q: q, doc: wire.Doc{Kind: wire.KindQuery, Graph: name, Seed: seed}}
	detail := func() string { return fmt.Sprintf("seed=%d", seed) }
	s.serveList(w, r, rr, detail, e.queryKey(seed, useEI, refine, top), func(ctx context.Context) (*answer, error) {
		// Effective importance divides every score by its node's degree,
		// so only it ranks a full score vector of its own.
		if useEI {
			scores, err := e.dyn.Precomputed().QueryEffectiveImportanceCtx(ctx, seed)
			if err != nil {
				return nil, err
			}
			return &answer{results: topResults(scores, top)}, nil
		}
		return s.solveDist(ctx, e, []int{seed}, []float64{1}, top, refine)
	})
}

// handleTopK answers GET /v1/graphs/{name}/topk?seed=<id>&k=<count> with
// the top-k nodes by exact RWR score, bit-identical to /query with top=k.
// The block-pruned solve usually answers; when the full solve ran instead,
// the response's "fallback" field names why.
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request, name string, e *entry) {
	q := r.URL.Query()
	n := e.dyn.Graph().N()
	seed, err := parseSeed(q, n)
	if err != nil {
		writeError(w, err)
		return
	}
	k, err := countParam(q, "k", n)
	if err != nil {
		writeError(w, err)
		return
	}
	rr := rankedRead{endpoint: "topk", e: e, q: q, doc: wire.Doc{Kind: wire.KindTopK, Graph: name, Seed: seed, K: k}}
	detail := func() string { return fmt.Sprintf("seed=%d k=%d", seed, k) }
	s.serveList(w, r, rr, detail, e.hasher("topk").Int(seed).Int(k).Sum(), func(ctx context.Context) (*answer, error) {
		return rankedAnswer(e.dyn.QueryTopKCtx(ctx, seed, k))
	})
}

// handlePageRank answers GET /v1/graphs/{name}/pagerank?top=: RWR from
// the uniform starting distribution.
func (s *Server) handlePageRank(w http.ResponseWriter, r *http.Request, name string, e *entry) {
	q := r.URL.Query()
	n := e.dyn.Graph().N()
	top, err := countParam(q, "top", n)
	if err != nil {
		writeError(w, err)
		return
	}
	rr := rankedRead{endpoint: "pagerank", e: e, q: q, doc: wire.Doc{Kind: wire.KindList, Graph: name}}
	detail := func() string { return fmt.Sprintf("top=%d", top) }
	s.serveList(w, r, rr, detail, e.hasher("pagerank").Int(top).Sum(), func(ctx context.Context) (*answer, error) {
		// PageRank misses once per top and epoch, so its uniform starting
		// vector is allocated here and solved in place.
		q := make([]float64, n)
		for i := range q {
			q[i] = 1 / float64(n)
		}
		if err := e.dyn.QueryDistToCtx(ctx, q, q); err != nil {
			return nil, err
		}
		return &answer{results: topResults(q, top)}, nil
	})
}

type pprRequest struct {
	Seeds map[string]float64 `json:"seeds"`
	Top   int                `json:"top"`
}

// handlePPR answers POST /v1/graphs/{name}/ppr?refine=: personalized
// PageRank from a weighted seed set.
func (s *Server) handlePPR(w http.ResponseWriter, r *http.Request, name string, e *entry) {
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
	dist := make(map[int]float64, len(req.Seeds))
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
		// Two spellings of one node ("3", "03", "+3") would otherwise
		// keep whichever weight the map visits last.
		if _, dup := dist[node]; dup {
			writeError(w, errBadRequest("seed node %d listed twice", node))
			return
		}
		dist[node] = weight
	}
	// The distribution's support, in node order with zero weights dropped:
	// the solve's input and the cache key's.
	nodes := make([]int, 0, len(dist))
	for node, weight := range dist {
		if weight != 0 {
			nodes = append(nodes, node)
		}
	}
	// Per-weight validation allows 0 (a harmless no-op entry), but a map
	// whose weights are *all* zero describes no starting distribution at
	// all — solving it would cache and return an all-zero vector. Reject
	// before the cache lookup.
	if len(nodes) == 0 {
		writeError(w, errBadRequest("seed weights must not all be zero"))
		return
	}
	slices.Sort(nodes)
	weights := make([]float64, len(nodes))
	for i, node := range nodes {
		weights[i] = dist[node]
	}
	top := count(req.Top, n)
	q := r.URL.Query()
	refine, err := parseRefine(q, e)
	if err != nil {
		writeError(w, err)
		return
	}
	// Fold the normalized distribution (node-order, zeros skipped) so the
	// hash is independent of JSON key order and duplicate spellings.
	h := e.hasher("ppr")
	for i, node := range nodes {
		h = h.Int(node).Float64(weights[i])
	}
	rr := rankedRead{endpoint: "ppr", e: e, q: q, doc: wire.Doc{Kind: wire.KindList, Graph: name}}
	detail := func() string { return fmt.Sprintf("seeds=%d", len(req.Seeds)) }
	s.serveList(w, r, rr, detail, h.Float64(refine).Int(top).Sum(), func(ctx context.Context) (*answer, error) {
		return s.solveDist(ctx, e, nodes, weights, top, refine)
	})
}

// handleBatch answers POST /v1/graphs/{name}/batch?refine=: one /query
// answer per seed, under /query's cache keys, so batch and single-seed
// requests share entries. A per-seed ranked solve reads only the blocks
// that can reach rank top, which beats the library's blocked multi-RHS
// solve at the few misses per chunk a batch holds.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, name string, e *entry) {
	req, err := parseSeedList(http.MaxBytesReader(w, r.Body, s.MaxBodyBytes), e.dyn.Graph().N())
	if err != nil {
		writeError(w, err)
		return
	}
	q := r.URL.Query()
	refine, err := parseRefine(q, e)
	if err != nil {
		writeError(w, err)
		return
	}
	rr := rankedRead{endpoint: "batch", e: e, q: q, doc: wire.Doc{Kind: wire.KindBatch, Graph: name}}
	detail := func() string { return fmt.Sprintf("seeds=%d", len(req.Seeds)) }
	s.servePerSeed(w, r, rr, detail, req.Seeds,
		func(seed int) uint64 { return e.queryKey(seed, false, refine, req.Top) },
		func(ctx context.Context, seed int) (*answer, error) {
			return s.solveDist(ctx, e, []int{seed}, []float64{1}, req.Top, refine)
		})
}

// handleCandidates answers POST /v1/graphs/{name}/candidates: for each
// seed, the k highest-scoring nodes that are not the seed and not already
// among its out-neighbors — the standard RWR link-prediction candidate
// set, ranked by Dynamic.QueryCandidatesCtx.
func (s *Server) handleCandidates(w http.ResponseWriter, r *http.Request, name string, e *entry) {
	req, err := parseSeedList(http.MaxBytesReader(w, r.Body, s.MaxBodyBytes), e.dyn.Graph().N())
	if err != nil {
		writeError(w, err)
		return
	}
	rr := rankedRead{endpoint: "candidates", e: e, q: r.URL.Query(), doc: wire.Doc{Kind: wire.KindCandidates, Graph: name, K: req.K}}
	detail := func() string { return fmt.Sprintf("seeds=%d k=%d", len(req.Seeds), req.K) }
	s.servePerSeed(w, r, rr, detail, req.Seeds,
		func(seed int) uint64 { return e.hasher("candidates").Int(seed).Int(req.K).Sum() },
		func(ctx context.Context, seed int) (*answer, error) {
			return rankedAnswer(e.dyn.QueryCandidatesCtx(ctx, seed, req.K))
		})
}
