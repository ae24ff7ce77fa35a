package server

import (
	"context"
	"sync/atomic"

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
// count (top or k is part of the cache key). An answer of the top-k solve
// also records why the full solve ran, if it did, so a /topk hit reports
// the same fallback field the original solve did.
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
