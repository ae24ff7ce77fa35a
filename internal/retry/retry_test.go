package retry

import (
	"context"
	"testing"
	"time"
)

func TestAttempts(t *testing.T) {
	if got := (Policy{}).Attempts(); got != 1 {
		t.Fatalf("zero policy attempts = %d, want 1", got)
	}
	if got := (Policy{MaxRetries: 3}).Attempts(); got != 4 {
		t.Fatalf("3-retry policy attempts = %d, want 4", got)
	}
	if got := (Policy{MaxRetries: -5}).Attempts(); got != 1 {
		t.Fatalf("negative-retry policy attempts = %d, want 1", got)
	}
}

func TestBackoffHonorsHint(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond}
	if got := p.Backoff(0, 7*time.Second); got != 7*time.Second {
		t.Fatalf("Backoff with hint = %v, want 7s", got)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond}
	for attempt := 0; attempt < 4; attempt++ {
		want := p.BaseDelay << uint(attempt)
		for i := 0; i < 50; i++ {
			got := p.Backoff(attempt, 0)
			if got < want/2 || got >= want/2+want {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, got, want/2, want/2+want)
			}
		}
	}
}

func TestParseRetryAfterDeltaSeconds(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	d, ok := ParseRetryAfter("120", now)
	if !ok || d != 2*time.Minute {
		t.Fatalf("ParseRetryAfter(120) = %v, %v; want 2m, true", d, ok)
	}
	if _, ok := ParseRetryAfter("-3", now); ok {
		t.Fatal("negative delta-seconds should not parse")
	}
	if _, ok := ParseRetryAfter("12x", now); ok {
		t.Fatal("malformed delta-seconds should not parse")
	}
	if _, ok := ParseRetryAfter("", now); ok {
		t.Fatal("empty value should not parse")
	}
}

func TestParseRetryAfterHTTPDate(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	future := now.Add(90 * time.Second)
	d, ok := ParseRetryAfter(future.Format("Mon, 02 Jan 2006 15:04:05 GMT"), now)
	if !ok || d != 90*time.Second {
		t.Fatalf("HTTP-date Retry-After = %v, %v; want 90s, true", d, ok)
	}
	// A date in the past means "retry now", not an error and not negative.
	past := now.Add(-time.Hour)
	d, ok = ParseRetryAfter(past.Format("Mon, 02 Jan 2006 15:04:05 GMT"), now)
	if !ok || d != 0 {
		t.Fatalf("past HTTP-date Retry-After = %v, %v; want 0, true", d, ok)
	}
	if _, ok := ParseRetryAfter("yesterday-ish", now); ok {
		t.Fatal("garbage date should not parse")
	}
}

func TestBudget(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	b := StartBudget(now, time.Second)
	if !b.Allows(now, 500*time.Millisecond) {
		t.Fatal("budget should allow a sleep landing inside it")
	}
	if b.Allows(now, 2*time.Second) {
		t.Fatal("budget should reject a sleep landing past it")
	}
	if b.Allows(now.Add(990*time.Millisecond), 20*time.Millisecond) {
		t.Fatal("budget should reject once nearly exhausted")
	}
	unlimited := StartBudget(now, 0)
	if !unlimited.Allows(now, 24*time.Hour) {
		t.Fatal("zero budget means unlimited")
	}
}

func TestSleepContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Minute); err == nil {
		t.Fatal("Sleep on a canceled context should return its error")
	}
	if err := Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("short Sleep: %v", err)
	}
}
