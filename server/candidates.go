package server

// The link-prediction workload: GET /topk answers top-k queries through
// the block-pruned solve (spoke blocks whose certified bound cannot reach
// rank k are never back-substituted), and POST /candidates ranks per-seed
// link-prediction candidates — top-k by RWR score excluding the seed and
// its existing out-neighbors — through the result cache and the same
// solve.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"bear/internal/obsv"
	"bear/internal/resultcache"
	"bear/internal/wire"
)

// parseK reads the ?k= parameter, defaulting to 10 and clamping to the
// node count (mirroring parseTop's contract for the query endpoint).
func parseK(q url.Values, n int) (int, error) {
	v := q.Get("k")
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
// the top-k nodes by exact RWR score, bit-identical to /query with top=k.
// The block-pruned solve usually answers; when the full solve ran instead,
// the response's "fallback" field names why.
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.lookup(name)
	if !ok {
		writeError(w, errNotFound(name))
		return
	}
	q := r.URL.Query()
	seedStr := q.Get("seed")
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
	k, err := parseK(q, n)
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	ctx, tr, debug := s.traceContext(ctx, q)
	hash := e.hasher("topk").Int(seed).Int(k).Sum()
	start := time.Now()
	res, status, err := s.cachedSolve(ctx, e, hash, func(ctx context.Context) (*answer, error) {
		res, err := e.dyn.QueryTopKCtx(ctx, seed, k)
		if err != nil {
			return nil, err
		}
		return &answer{results: rankedResults(res), fallback: res.Stats.Fallback}, nil
	})
	if err != nil {
		writeError(w, queryError(err))
		return
	}
	s.logSlow("topk", name, status, time.Since(start), tr, func() string { return fmt.Sprintf("seed=%d k=%d", seed, k) })
	w.Header().Set("X-Cache", status)
	writeRanked(w, wire.Doc{Kind: wire.KindTopK, Graph: name, Seed: seed, K: k, Fallback: res.fallback, Results: res.results}, tr, debug)
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
type CandidateSeedResult = wire.CandidateSeedResult

// handleCandidates answers POST /v1/graphs/{name}/candidates: for each
// seed, the k highest-scoring nodes that are not the seed and not already
// among its out-neighbors — the standard RWR link-prediction candidate
// set. Per-seed results are cached under their own key kind; each miss is
// answered by Dynamic.QueryCandidatesCtx, the ranked top-k solve.
func (s *Server) handleCandidates(w http.ResponseWriter, r *http.Request) {
	s.metrics().candidatesRequests.Inc()
	name := r.PathValue("name")
	e, ok := s.lookup(name)
	if !ok {
		writeError(w, errNotFound(name))
		return
	}
	req, err := parseCandidatesRequest(http.MaxBytesReader(w, r.Body, s.MaxBodyBytes), e.dyn.Graph().N())
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	ctx, tr, debug := s.traceContext(ctx, r.URL.Query())
	start := time.Now()
	cache := s.resultCache()
	// One epoch read covers the batch (see handleBatch): entries written
	// under it can only be fresher than the key promises, exclusion edges
	// included.
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
		for _, i := range missIdx {
			res, err := e.dyn.QueryCandidatesCtx(ctx, req.Seeds[i], req.K)
			if err != nil {
				writeError(w, queryError(err))
				return
			}
			cands := rankedResults(res)
			cache.Put(keys[i], &answer{results: cands})
			out[i] = CandidateSeedResult{Seed: req.Seeds[i], Cache: "miss", Candidates: cands}
		}
	}
	s.logSlow("candidates", name, status, time.Since(start), tr, func() string {
		return fmt.Sprintf("seeds=%d k=%d misses=%d", len(req.Seeds), req.K, len(missIdx))
	})
	w.Header().Set("X-Cache", status)
	writeRanked(w, wire.Doc{Kind: wire.KindCandidates, Graph: name, K: req.K, Candidates: out}, tr, debug)
}
