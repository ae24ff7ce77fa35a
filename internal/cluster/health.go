package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Shard health is judged from two independent signals and recovered
// through a half-open circuit:
//
//   - Passive: every proxied request reports its outcome into a rolling
//     window. When the window holds at least MinSamples outcomes and the
//     success rate drops below SuccessFloor, the shard is ejected — this
//     catches shards that answer probes but fail or shed real traffic.
//   - Active: a probe loop GETs each shard's /readyz. ProbeFailures
//     consecutive failures (unreachable, or alive-but-not-ready: empty or
//     mid-restore) eject the shard — this catches shards that die or
//     degrade while no traffic happens to be flowing.
//
// An ejected shard cools down for EjectDuration, then turns half-open: the
// next probe is its trial. Success re-admits it with a clean window;
// failure re-ejects it for another cooldown. Ejection is advisory, not a
// hard gate — reads prefer healthy replicas but still fall through to
// ejected ones when nothing better is left, and mutations always fan out
// to every replica — so a wrongly ejected shard costs latency, never
// availability.

// State is a shard's circuit-breaker state.
type State int32

const (
	// Healthy shards serve reads first-choice.
	Healthy State = iota
	// HalfOpen shards are cooling down and awaiting a trial probe; reads
	// use them before ejected shards but after healthy ones.
	HalfOpen
	// Ejected shards failed recently; reads use them only as a last
	// resort.
	Ejected
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case HalfOpen:
		return "half-open"
	default:
		return "ejected"
	}
}

// HealthConfig tunes ejection and recovery.
type HealthConfig struct {
	// WindowSize is how many recent request outcomes the rolling window
	// holds (default 32).
	WindowSize int
	// MinSamples is how many outcomes the window needs before the success
	// rate can eject (default 8) — a single failed request on a quiet
	// shard must not trip the breaker.
	MinSamples int
	// SuccessFloor is the rolling success rate below which the shard is
	// ejected (default 0.5).
	SuccessFloor float64
	// ProbeFailures is how many consecutive active-probe failures eject
	// (default 3).
	ProbeFailures int
	// EjectDuration is the cooldown before an ejected shard turns
	// half-open (default 5s).
	EjectDuration time.Duration
	// ProbeInterval spaces the active probe loop (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (default 1s).
	ProbeTimeout time.Duration
}

func (c *HealthConfig) fillDefaults() {
	if c.WindowSize <= 0 {
		c.WindowSize = 32
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.SuccessFloor <= 0 {
		c.SuccessFloor = 0.5
	}
	if c.ProbeFailures <= 0 {
		c.ProbeFailures = 3
	}
	if c.EjectDuration <= 0 {
		c.EjectDuration = 5 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
}

// shard is one member's runtime state.
type shard struct {
	id   string
	base string // base URL, no trailing slash

	mu         sync.Mutex
	state      State
	window     []bool // ring buffer of request outcomes
	wi         int    // next write position
	wn         int    // valid entries
	probeFails int
	ejectedAt  time.Time
	lastErr    string

	m shardCounters // set by newFrontMetrics
}

// snapshotState reads the shard's state without tearing.
func (sh *shard) snapshotState() (State, float64, string) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.state, sh.successRateLocked(), sh.lastErr
}

func (sh *shard) successRateLocked() float64 {
	if sh.wn == 0 {
		return 1
	}
	ok := 0
	for i := 0; i < sh.wn; i++ {
		if sh.window[i] {
			ok++
		}
	}
	return float64(ok) / float64(sh.wn)
}

// report records one proxied-request outcome and applies the passive
// ejection rule. It returns true when this report ejected the shard.
func (sh *shard) report(ok bool, errText string, cfg *HealthConfig) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.window) != cfg.WindowSize {
		sh.window = make([]bool, cfg.WindowSize)
		sh.wi, sh.wn = 0, 0
	}
	sh.window[sh.wi] = ok
	sh.wi = (sh.wi + 1) % len(sh.window)
	if sh.wn < len(sh.window) {
		sh.wn++
	}
	if !ok {
		sh.lastErr = errText
	}
	switch {
	case ok && sh.state == HalfOpen:
		// A real request succeeding during the trial period is as good as
		// a probe: re-admit.
		sh.toHealthyLocked()
	case !ok && sh.state == Healthy &&
		sh.wn >= cfg.MinSamples && sh.successRateLocked() < cfg.SuccessFloor:
		sh.ejectLocked()
		return true
	}
	return false
}

// probeResult folds one active-probe outcome into the state machine and
// reports whether this probe ejected the shard.
func (sh *shard) probeResult(ok bool, errText string, cfg *HealthConfig) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ok {
		sh.probeFails = 0
		if sh.state != Healthy {
			sh.toHealthyLocked()
		}
		return false
	}
	sh.lastErr = errText
	switch sh.state {
	case Healthy:
		sh.probeFails++
		if sh.probeFails >= cfg.ProbeFailures {
			sh.ejectLocked()
			return true
		}
	case HalfOpen:
		// Failed its trial: back to the cooler.
		sh.ejectLocked()
		return true
	case Ejected:
		sh.ejectedAt = time.Now()
	}
	return false
}

// maybeHalfOpen moves an ejected shard whose cooldown elapsed to
// half-open, making the next probe (or read) its trial.
func (sh *shard) maybeHalfOpen(cfg *HealthConfig) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.state == Ejected && time.Since(sh.ejectedAt) >= cfg.EjectDuration {
		sh.state = HalfOpen
	}
}

func (sh *shard) toHealthyLocked() {
	sh.state = Healthy
	sh.probeFails = 0
	sh.wn, sh.wi = 0, 0 // clean slate: old failures must not re-eject instantly
	sh.lastErr = ""
}

func (sh *shard) ejectLocked() {
	sh.state = Ejected
	sh.ejectedAt = time.Now()
	sh.probeFails = 0
}

// probe performs one active /readyz check against sh. "OK" means the shard
// answered 200: alive AND ready (has graphs, not restoring). A reachable
// shard that is empty or mid-restore reports its status string as the
// error, so operators can tell "down" from "draining" in /v1/cluster/status.
func (c *Cluster) probe(ctx context.Context, sh *shard) (bool, string) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.Health.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.base+"/readyz", nil)
	if err != nil {
		return false, err.Error()
	}
	resp, err := c.httpClient.Do(req)
	if err != nil {
		return false, err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return true, ""
	}
	var rep struct {
		Status string `json:"status"`
	}
	if json.NewDecoder(resp.Body).Decode(&rep) == nil && rep.Status != "" {
		return false, fmt.Sprintf("not ready: %s", rep.Status)
	}
	return false, fmt.Sprintf("readyz returned HTTP %d", resp.StatusCode)
}

// ProbeAll runs one synchronous probe round: cooldown transitions first,
// then an active probe of every shard not still cooling down. The probe
// loop calls this on a ticker; tests call it directly for deterministic
// state transitions.
func (c *Cluster) ProbeAll(ctx context.Context) {
	for _, sh := range c.shards {
		sh.maybeHalfOpen(&c.cfg.Health)
		sh.mu.Lock()
		cooling := sh.state == Ejected
		sh.mu.Unlock()
		if cooling {
			continue
		}
		ok, errText := c.probe(ctx, sh)
		if sh.probeResult(ok, errText, &c.cfg.Health) {
			sh.m.ejections.Inc()
		}
		if !ok {
			sh.m.probeFailures.Inc()
		}
	}
}

// Start launches the background probe loop; it stops when ctx is done.
func (c *Cluster) Start(ctx context.Context) {
	go func() {
		t := time.NewTicker(c.cfg.Health.ProbeInterval)
		defer t.Stop()
		// One immediate round so a freshly booted front has a health view
		// before its first request.
		c.ProbeAll(ctx)
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				c.ProbeAll(ctx)
			}
		}
	}()
}
