// Package retry centralizes the retry policy shared by the bear client and
// the bearfront coordinator: exponential backoff with jitter, Retry-After
// parsing in both HTTP shapes (delta-seconds and HTTP-date), and a
// wall-clock budget that caps the total time an operation keeps retrying.
//
// The package is deliberately mechanism-only. Callers decide *what* is safe
// to retry (idempotent reads, never mutations) and *when* an error is
// retryable; this package answers "how long to sleep before the next try"
// and "is there time left to try at all".
package retry

import (
	"context"
	"math/rand"
	"net/http"
	"time"
)

// Policy describes how an idempotent operation is retried. The zero value
// retries nothing; DefaultPolicy matches the bear client's historical
// behavior.
type Policy struct {
	// MaxRetries is how many times the operation is retried after its
	// first failure. Zero disables retries.
	MaxRetries int

	// BaseDelay is the sleep before the first retry; each further retry
	// doubles it before jitter. Zero means 100ms.
	BaseDelay time.Duration

	// Budget caps the total wall clock spent across all attempts and
	// backoff sleeps, measured from just before the first attempt. A
	// retry whose backoff sleep would land past the budget is abandoned
	// and the last error returned instead. Zero means no budget.
	Budget time.Duration
}

// DefaultPolicy is the client's historical behavior — 2 retries from a
// 100ms base — plus a 1-minute budget so a pathological Retry-After hint
// or a long streak of slow failures cannot stall a caller indefinitely.
var DefaultPolicy = Policy{
	MaxRetries: 2,
	BaseDelay:  100 * time.Millisecond,
	Budget:     time.Minute,
}

// Attempts is the total number of tries the policy allows (first attempt
// plus retries); always at least 1.
func (p Policy) Attempts() int {
	if p.MaxRetries <= 0 {
		return 1
	}
	return 1 + p.MaxRetries
}

// Backoff picks the sleep before retry number attempt+1 (attempt counts
// from 0): the server's Retry-After hint when one was given, otherwise
// exponential growth from BaseDelay with ±50% jitter so synchronized
// clients fan out instead of stampeding in lockstep.
func (p Policy) Backoff(attempt int, hint time.Duration) time.Duration {
	if hint > 0 {
		return hint
	}
	base := p.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	// Shift with an overflow guard: doubling stops past 2⁴⁰ns (about 18
	// minutes), long before 62 doublings would wrap the duration negative.
	d := base
	for i := 0; i < attempt && d < 1<<40*time.Nanosecond; i++ {
		d <<= 1
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// ParseRetryAfter interprets a Retry-After header value, which RFC 9110
// allows in two shapes: delta-seconds ("120") or an HTTP-date ("Fri, 07
// Aug 2026 09:00:00 GMT"). now anchors date arithmetic so callers (and
// tests) control the clock. The boolean reports whether the value parsed;
// a date in the past parses to zero, meaning "retry immediately".
func ParseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	// Delta-seconds first: strconv would also accept "+3", but the header
	// grammar is digits only, so parse by hand and reject anything else.
	if d, ok := parseDeltaSeconds(v); ok {
		return d, true
	}
	if t, err := http.ParseTime(v); err == nil {
		d := t.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

func parseDeltaSeconds(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	var secs int64
	for _, r := range v {
		if r < '0' || r > '9' {
			return 0, false
		}
		secs = secs*10 + int64(r-'0')
		if secs > int64(time.Hour/time.Second)*24 {
			// Clamp absurd hints at a day; the caller's budget will cut
			// in far earlier, this just avoids overflow arithmetic.
			secs = int64(time.Hour/time.Second) * 24
			break
		}
	}
	return time.Duration(secs) * time.Second, true
}

// Budget tracks the wall-clock allowance of one retried operation.
type Budget struct {
	deadline time.Time
}

// StartBudget opens a budget of d measured from now; a zero d means
// unlimited.
func StartBudget(now time.Time, d time.Duration) Budget {
	if d <= 0 {
		return Budget{}
	}
	return Budget{deadline: now.Add(d)}
}

// Allows reports whether sleeping for sleep starting at now still lands
// inside the budget. An unlimited budget always allows.
func (b Budget) Allows(now time.Time, sleep time.Duration) bool {
	if b.deadline.IsZero() {
		return true
	}
	return now.Add(sleep).Before(b.deadline)
}

// Sleep waits for d or until ctx is done, whichever comes first, and
// reports the context's error if it cut the sleep short.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
