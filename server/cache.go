package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"bear/internal/obsv"
	"bear/internal/resultcache"
)

// The serving layer caches ranked answers — the top entries of a query,
// never its score vector — keyed by (registration generation, dynamic
// epoch, parameter hash), so an entry costs ≈24 bytes per returned node at
// any graph size. Invalidation is purely by key construction: every
// accepted edge update and every rebuild swap bumps the Dynamic epoch, and
// every PUT or snapshot restore assigns a fresh generation, so a changed
// graph makes all prior entries unreachable and they age out of the LRU.
// The epoch in the key is always the one observed *before* the solve ran —
// a concurrent update can therefore only make a cached answer fresher than
// its key promises, never staler, so no request ever reads pre-update data
// through the cache.

// nextGen hands out registration generations. It is process-global so a
// graph re-registered under a reused name — including via snapshot
// restore — can never collide with cache entries of its predecessor.
var nextGen atomic.Uint64

// answer is one cached ranked answer: the top entries for the requested
// count (top or k is part of the cache key). A hybrid top-k answer also
// records how it was computed, so hits report the same pruned/fallback
// fields the original solve did.
type answer struct {
	results  []ScoredNode
	pruned   bool
	fallback string
}

func (a *answer) CacheBytes() int64 { return int64(len(a.results))*24 + 48 }

// borrowVec lends an n-length score vector from e's pool; its contents are
// arbitrary. Return it with e.vecs.Put once nothing reads it: a cache miss
// then allocates only its answer, not a vector per solve.
func (e *entry) borrowVec() *[]float64 {
	if v, ok := e.vecs.Get().(*[]float64); ok {
		return v
	}
	v := make([]float64, e.dyn.Precomputed().N)
	return &v
}

// solvePooled runs solve into a borrowed score vector and ranks its top
// entries in place; the vector goes back to the pool.
func (e *entry) solvePooled(top int, solve func(dst []float64) error) (*answer, error) {
	v := e.borrowVec()
	defer e.vecs.Put(v)
	if err := solve(*v); err != nil {
		return nil, err
	}
	return &answer{results: topResults(*v, top)}, nil
}

// batchPooled solves seeds through the blocked multi-RHS solver into
// borrowed score vectors and hands each to rank (indexed like seeds)
// before the vectors go back to the pool.
func (e *entry) batchPooled(ctx context.Context, seeds []int, rank func(j int, scores []float64)) error {
	borrowed := make([]*[]float64, len(seeds))
	vecs := make([][]float64, len(seeds))
	for j := range seeds {
		borrowed[j] = e.borrowVec()
		vecs[j] = *borrowed[j]
	}
	defer func() {
		for _, v := range borrowed {
			e.vecs.Put(v)
		}
	}()
	if err := e.dyn.QueryBatchToCtx(ctx, vecs, seeds, 0); err != nil {
		return err
	}
	for j, scores := range vecs {
		rank(j, scores)
	}
	return nil
}

// resultCache lazily builds the cache from the configured budget so the
// fields can be set any time before the first request.
func (s *Server) resultCache() *resultcache.Cache {
	s.cacheOnce.Do(func() {
		s.cache = resultcache.New(s.CacheMaxBytes, s.CacheTTL)
	})
	return s.cache
}

// hasher seeds a parameter digest for one query kind against this entry.
// The preprocessing options are folded in alongside the generation so a
// key never outlives a semantic change to how scores are computed.
func (e *entry) hasher(kind string) resultcache.Hasher {
	h := resultcache.NewHasher().String(kind).Float64(e.opts.C).Float64(e.opts.DropTol)
	if e.opts.Laplacian {
		return h.Byte(1)
	}
	return h.Byte(0)
}

// cachedSolve answers one query through the cache and the singleflight
// coalescer: a hit returns immediately; concurrent identical misses run
// one solve and share its answer; the winner's answer is cached for later
// requests. The returned status is the X-Cache header value
// (hit|miss|coalesced).
func (s *Server) cachedSolve(ctx context.Context, e *entry, hash uint64, solve func(context.Context) (*answer, error)) (*answer, string, error) {
	cache := s.resultCache()
	key := resultcache.Key{Gen: e.gen, Epoch: e.dyn.Epoch(), Hash: hash}
	sw := obsv.FromContext(ctx).Start(obsv.SpanCacheLookup)
	v, ok := cache.Get(key)
	sw.Stop()
	if ok {
		return v.(*answer), "hit", nil
	}
	v, shared, err := s.flight.Do(ctx, key, func() (resultcache.Value, error) {
		res, err := solve(ctx)
		if err != nil {
			return nil, err
		}
		cache.Put(key, res)
		return res, nil
	})
	if err != nil {
		return nil, "", err
	}
	if shared {
		return v.(*answer), "coalesced", nil
	}
	return v.(*answer), "miss", nil
}

// Stats is the server-wide operational snapshot served at GET /v1/stats.
//
// Deprecated: prefer scraping GET /metrics, which carries these counters
// and much more in Prometheus format. The endpoint is kept for scripted
// consumers and reads through the same metric registry, so the two views
// can never disagree.
type Stats struct {
	Graphs int               `json:"graphs"`
	Cache  resultcache.Stats `json:"cache"`
}

// Stats reports the registry size and cache counters. The values are read
// back through the obsv registry series (bear_graphs, bear_cache_*) rather
// than straight from the cache, so /v1/stats is by construction a subset
// of what GET /metrics exposes.
func (s *Server) Stats() Stats {
	m := s.metrics()
	return Stats{
		Graphs: int(m.graphs.Value()),
		Cache: resultcache.Stats{
			Hits:      m.cacheHits.Value(),
			Misses:    m.cacheMisses.Value(),
			Coalesced: m.cacheCoalesced.Value(),
			Evictions: m.cacheEvictions.Value(),
			Expired:   m.cacheExpired.Value(),
			Entries:   int(m.cacheEntries.Value()),
			Bytes:     int64(m.cacheBytes.Value()),
			MaxBytes:  int64(m.cacheMaxBytes.Value()),
		},
	}
}

func (s *Server) handleServerStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// maxBatchSeeds bounds one batch request; larger batches should be split
// by the client so admission control and timeouts stay meaningful.
const maxBatchSeeds = 1024

type batchRequest struct {
	Seeds []int `json:"seeds"`
	Top   int   `json:"top"`
}

// BatchSeedResult is one seed's slot in a batch response.
type BatchSeedResult struct {
	Seed    int          `json:"seed"`
	Cache   string       `json:"cache"` // hit | miss
	Results []ScoredNode `json:"results"`
}

// handleBatch answers POST /v1/graphs/{name}/batch: each seed is first
// looked up in the result cache (sharing entries with the single-seed
// query endpoint), and all misses are solved together through the blocked
// multi-RHS batch solver — one factor traversal per chunk of seeds instead
// of one per seed. Results are bit-identical to the single-seed path.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.lookup(name)
	if !ok {
		writeError(w, errNotFound(name))
		return
	}
	var req batchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.MaxBodyBytes)).Decode(&req); err != nil {
		writeError(w, errBadRequest("decoding body: %v", err))
		return
	}
	if len(req.Seeds) == 0 {
		writeError(w, errBadRequest("seeds must not be empty"))
		return
	}
	if len(req.Seeds) > maxBatchSeeds {
		writeError(w, errBadRequest("batch of %d seeds exceeds the limit of %d", len(req.Seeds), maxBatchSeeds))
		return
	}
	n := e.dyn.Graph().N()
	for _, seed := range req.Seeds {
		if seed < 0 || seed >= n {
			writeError(w, errBadRequest("seed %d out of range [0,%d)", seed, n))
			return
		}
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
	start := time.Now()
	cache := s.resultCache()
	// One epoch read covers the whole batch, taken before any solving, so
	// every entry written below is safe under the fresher-than-promised
	// rule even if updates land mid-batch.
	epoch := e.dyn.Epoch()
	out := make([]BatchSeedResult, len(req.Seeds))
	keys := make([]resultcache.Key, len(req.Seeds))
	var missIdx []int
	sw := tr.Start(obsv.SpanCacheLookup)
	for i, seed := range req.Seeds {
		// Probe shape must stay in sync with handleQuery's key (kind
		// "query", seed, ei byte, refine tolerance, top) so batch and
		// single-seed requests share cache entries.
		h := e.hasher("query").Int(seed).Byte(0).Float64(refine).Int(top)
		keys[i] = resultcache.Key{Gen: e.gen, Epoch: epoch, Hash: h.Sum()}
		if v, ok := cache.Get(keys[i]); ok {
			out[i] = BatchSeedResult{Seed: seed, Cache: "hit", Results: v.(*answer).results}
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
		results := make([][]ScoredNode, len(missSeeds))
		var err error
		if refine > 0 {
			// Refinement sweeps are per-vector (each iterate needs its own
			// residual), so refined misses solve seed by seed instead of
			// through the blocked multi-RHS path.
			for j, seed := range missSeeds {
				q := make([]float64, n)
				q[seed] = 1
				var scores []float64
				if scores, err = s.refineSolve(ctx, e, q, refine); err != nil {
					break
				}
				results[j] = topResults(scores, top)
			}
		} else {
			err = e.batchPooled(ctx, missSeeds, func(j int, scores []float64) {
				results[j] = topResults(scores, top)
			})
		}
		if err != nil {
			writeError(w, queryError(err))
			return
		}
		for j, i := range missIdx {
			cache.Put(keys[i], &answer{results: results[j]})
			out[i] = BatchSeedResult{Seed: req.Seeds[i], Cache: "miss", Results: results[j]}
		}
	}
	s.logSlow("batch", name, fmt.Sprintf("seeds=%d misses=%d", len(req.Seeds), len(missIdx)),
		status, time.Since(start), tr)
	w.Header().Set("X-Cache", status)
	resp := map[string]interface{}{
		"graph":   name,
		"results": out,
	}
	if debug {
		resp["trace"] = traceSpans(tr)
	}
	writeJSON(w, http.StatusOK, resp)
}
