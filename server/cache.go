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
	"bear/internal/wire"
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
// count (top or k is part of the cache key). A top-k answer also records
// why the full solve ran, if it did, so hits report the same fallback
// field the original solve did.
type answer struct {
	results  []ScoredNode
	fallback string
}

func (a *answer) CacheBytes() int64 { return int64(len(a.results))*24 + 40 }

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

// maxBatchSeeds bounds one batch request; larger batches should be split
// by the client so admission control and timeouts stay meaningful.
const maxBatchSeeds = 1024

type batchRequest struct {
	Seeds []int `json:"seeds"`
	Top   int   `json:"top"`
}

// BatchSeedResult is one seed's slot in a batch response.
type BatchSeedResult = wire.BatchSeedResult

// handleBatch answers POST /v1/graphs/{name}/batch: each seed is first
// looked up in the result cache (sharing entries with the single-seed
// query endpoint), and each miss is answered by the top-k solve, exactly
// as a single-seed query miss is. A per-seed ranked solve reads only the
// blocks that can reach rank top, which beats the library's blocked
// multi-RHS solve at the few misses per chunk a batch holds.
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
	q := r.URL.Query()
	refine, err := parseRefine(q)
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
	ctx, tr, debug := s.traceContext(ctx, q)
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
		for _, i := range missIdx {
			results, err := s.solveSeed(ctx, e, req.Seeds[i], top, refine)
			if err != nil {
				writeError(w, queryError(err))
				return
			}
			cache.Put(keys[i], &answer{results: results})
			out[i] = BatchSeedResult{Seed: req.Seeds[i], Cache: "miss", Results: results}
		}
	}
	s.logSlow("batch", name, status, time.Since(start), tr, func() string {
		return fmt.Sprintf("seeds=%d misses=%d", len(req.Seeds), len(missIdx))
	})
	w.Header().Set("X-Cache", status)
	writeRanked(w, wire.Doc{Kind: wire.KindBatch, Graph: name, Batch: out}, tr, debug)
}
