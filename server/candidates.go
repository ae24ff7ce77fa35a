package server

// The link-prediction workload: GET /topk answers hybrid top-k queries
// (local-push bounds pruning the exact solve when they certify the set),
// and POST /candidates ranks per-seed link-prediction candidates — top-k
// by RWR score excluding the seed and its existing out-neighbors — through
// the result cache and the blocked multi-RHS batch solver.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"bear"
	"bear/internal/obsv"
	"bear/internal/resultcache"
)

// parseK reads the ?k= parameter, defaulting to 10 and clamping to the
// node count (mirroring parseTop's contract for the query endpoint).
func parseK(r *http.Request, n int) (int, error) {
	v := r.URL.Query().Get("k")
	if v == "" {
		return min(10, n), nil
	}
	k, err := strconv.Atoi(v)
	if err != nil || k <= 0 {
		return 0, errBadRequest("k %q must be a positive integer", v)
	}
	if k > n {
		k = n
	}
	return k, nil
}

// handleTopK answers GET /v1/graphs/{name}/topk?seed=<id>&k=<count> with
// the top-k nodes by exact RWR score. The solve is the hybrid path: the
// node set is always identical to ranking the full exact solve, but when
// the push bound certifies the set early the exact solve is skipped
// entirely (response field "pruned", metric bear_topk_pruned_total).
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
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
	n := e.dyn.Graph().N()
	if seed < 0 || seed >= n {
		writeError(w, errBadRequest("seed %d out of range [0,%d)", seed, n))
		return
	}
	k, err := parseK(r, n)
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	ctx, tr, debug := s.traceContext(ctx, r)
	hash := e.hasher("topk").Int(seed).Int(k).Sum()
	start := time.Now()
	res, status, err := s.cachedSolve(ctx, e, hash, func(ctx context.Context) (*answer, error) {
		res, err := e.dyn.QueryTopKCtx(ctx, seed, k)
		if err != nil {
			return nil, err
		}
		if res.Stats.Pruned {
			s.metrics().topkPruned.Inc()
		}
		out := make([]ScoredNode, len(res.Nodes))
		for i, node := range res.Nodes {
			out[i] = ScoredNode{Node: node, Score: res.Scores[i]}
		}
		return &answer{results: out, pruned: res.Stats.Pruned, fallback: res.Stats.Fallback}, nil
	})
	if err != nil {
		writeError(w, queryError(err))
		return
	}
	s.logSlow("topk", name, fmt.Sprintf("seed=%d k=%d pruned=%v", seed, k, res.pruned),
		status, time.Since(start), tr)
	w.Header().Set("X-Cache", status)
	resp := map[string]interface{}{
		"graph":   name,
		"seed":    seed,
		"k":       k,
		"pruned":  res.pruned,
		"results": res.results,
	}
	if res.fallback != "" {
		resp["fallback"] = res.fallback
	}
	if debug {
		resp["trace"] = traceSpans(tr)
	}
	writeJSON(w, http.StatusOK, resp)
}

type candidatesRequest struct {
	Seeds []int `json:"seeds"`
	K     int   `json:"k"`
}

// parseCandidatesRequest decodes and validates one /candidates body
// against a graph of n nodes, returning the request with K defaulted (10)
// and clamped to n. It is a pure function of (body, n) so the fuzz target
// can drive it directly.
func parseCandidatesRequest(body io.Reader, n int) (candidatesRequest, error) {
	var req candidatesRequest
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
	if req.K <= 0 {
		req.K = 10
	}
	if req.K > n {
		req.K = n
	}
	return req, nil
}

// CandidateSeedResult is one seed's slot in a /candidates response.
type CandidateSeedResult struct {
	Seed       int          `json:"seed"`
	Cache      string       `json:"cache"` // hit | miss
	Candidates []ScoredNode `json:"candidates"`
}

// handleCandidates answers POST /v1/graphs/{name}/candidates: for each
// seed, the k highest-scoring nodes that are not the seed and not already
// among its out-neighbors — the standard RWR link-prediction candidate
// set. Per-seed results are cached under their own key kind; all misses
// are solved together through the blocked multi-RHS batch solver.
func (s *Server) handleCandidates(w http.ResponseWriter, r *http.Request) {
	s.metrics().candidatesRequests.Inc()
	name := r.PathValue("name")
	e, ok := s.lookup(name)
	if !ok {
		writeError(w, errNotFound(name))
		return
	}
	g := e.dyn.Graph()
	req, err := parseCandidatesRequest(http.MaxBytesReader(w, r.Body, s.MaxBodyBytes), g.N())
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	ctx, tr, debug := s.traceContext(ctx, r)
	start := time.Now()
	cache := s.resultCache()
	// One epoch read covers the batch (see handleBatch): entries written
	// under it can only be fresher than the key promises. The exclusion
	// edges come from g, captured alongside.
	epoch := e.dyn.Epoch()
	out := make([]CandidateSeedResult, len(req.Seeds))
	keys := make([]resultcache.Key, len(req.Seeds))
	var missIdx []int
	sw := tr.Start(obsv.SpanCacheLookup)
	for i, seed := range req.Seeds {
		h := e.hasher("candidates").Int(seed).Int(req.K)
		keys[i] = resultcache.Key{Gen: e.gen, Epoch: epoch, Hash: h.Sum()}
		if v, ok := cache.Get(keys[i]); ok {
			out[i] = CandidateSeedResult{Seed: seed, Cache: "hit", Candidates: v.(*answer).results}
		} else {
			missIdx = append(missIdx, i)
		}
	}
	sw.Stop()
	status := "hit"
	if len(missIdx) > 0 {
		status = "miss"
		missSeeds := make([]int, len(missIdx))
		for j, i := range missIdx {
			missSeeds[j] = req.Seeds[i]
		}
		cands := make([][]ScoredNode, len(missSeeds))
		err := e.batchPooled(ctx, missSeeds, func(j int, scores []float64) {
			ids := bear.TopKCandidates(g, scores, missSeeds[j], req.K)
			cands[j] = make([]ScoredNode, len(ids))
			for x, u := range ids {
				cands[j][x] = ScoredNode{Node: u, Score: scores[u]}
			}
		})
		if err != nil {
			writeError(w, queryError(err))
			return
		}
		for j, i := range missIdx {
			cache.Put(keys[i], &answer{results: cands[j]})
			out[i] = CandidateSeedResult{Seed: req.Seeds[i], Cache: "miss", Candidates: cands[j]}
		}
	}
	s.logSlow("candidates", name, fmt.Sprintf("seeds=%d k=%d misses=%d", len(req.Seeds), req.K, len(missIdx)),
		status, time.Since(start), tr)
	w.Header().Set("X-Cache", status)
	resp := map[string]interface{}{
		"graph":   name,
		"k":       req.K,
		"results": out,
	}
	if debug {
		resp["trace"] = traceSpans(tr)
	}
	writeJSON(w, http.StatusOK, resp)
}
