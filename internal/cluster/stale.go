package cluster

import (
	"container/list"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// The last-good cache behind graceful degradation: every successful read
// proxied through the front leaves a copy of its response here, keyed by
// the request's canonical shape. When every replica of a graph is down,
// the front answers from this cache (within StaleTTL, flagged
// X-Degraded: stale) instead of erroring — a slightly old ranking beats a
// dead feature for almost every RWR workload. A plain LRU bounded by
// entry count: responses are top-k JSON bodies, small and uniform, so
// byte-accounting would buy little.

type staleEntry struct {
	key         string
	status      int
	contentType string
	body        []byte
	at          time.Time
}

type staleCache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recent
	entries map[string]*list.Element
}

func newStaleCache(max int) *staleCache {
	return &staleCache{max: max, ll: list.New(), entries: make(map[string]*list.Element)}
}

// Len reports resident entries.
func (s *staleCache) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// put stores (replacing) the last-good response for key.
func (s *staleCache) put(key string, status int, contentType string, body []byte) {
	if s == nil || s.max <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		e := el.Value.(*staleEntry)
		e.status, e.contentType, e.at = status, contentType, time.Now()
		e.body = append(e.body[:0], body...)
		s.ll.MoveToFront(el)
		return
	}
	for len(s.entries) >= s.max {
		oldest := s.ll.Back()
		if oldest == nil {
			break
		}
		s.ll.Remove(oldest)
		delete(s.entries, oldest.Value.(*staleEntry).key)
	}
	e := &staleEntry{key: key, status: status, contentType: contentType,
		body: append([]byte(nil), body...), at: time.Now()}
	s.entries[key] = s.ll.PushFront(e)
}

// get returns the last-good response for key if one exists and is younger
// than ttl, plus its age. ttl <= 0 disables stale serving entirely.
func (s *staleCache) get(key string, ttl time.Duration) (staleEntry, time.Duration, bool) {
	if s == nil || ttl <= 0 {
		return staleEntry{}, 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return staleEntry{}, 0, false
	}
	e := el.Value.(*staleEntry)
	age := time.Since(e.at)
	if age > ttl {
		return staleEntry{}, 0, false
	}
	// Copy out under the lock: the caller writes the body after unlock,
	// and a concurrent put may recycle the slice.
	cp := *e
	cp.body = append([]byte(nil), e.body...)
	return cp, age, true
}

// staleKey canonicalizes one read request: method, path, sorted query
// (parameter order must not split cache entries), and — for the POST
// reads ppr, batch and candidates — the body. Bodies ride in verbatim;
// they are small JSON documents and hashing them here would save little.
func staleKey(r *http.Request, body []byte) string {
	var b strings.Builder
	b.WriteString(r.Method)
	b.WriteByte(' ')
	b.WriteString(r.URL.Path)
	q := r.URL.Query()
	if len(q) > 0 {
		keys := make([]string, 0, len(q))
		for k := range q {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteByte('?')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte('&')
			}
			for j, v := range q[k] {
				if j > 0 {
					b.WriteByte('&')
				}
				b.WriteString(k)
				b.WriteByte('=')
				b.WriteString(v)
			}
		}
	}
	if len(body) > 0 {
		b.WriteByte('\n')
		b.Write(body)
	}
	return b.String()
}
