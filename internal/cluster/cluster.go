// Package cluster is the bearfront coordinator: a stateless HTTP tier
// that places graphs on bearserve shards by consistent hashing with a
// configurable replication factor, proxies the single-node /v1 API
// unchanged, and owns the cluster's reliability policy — health-checked
// ejection with half-open recovery, replica failover under per-try
// timeouts and a retry budget, hedged reads against tail latency, and
// graceful degradation (stale-if-down answers, machine-readable 503s)
// when a graph's whole replica set is unavailable.
//
// The design inverts the usual "distributed system" instinct: shards know
// nothing about each other or about the front. All coordination state is
// a pure function of the -shard list (the hash ring) plus soft state any
// front rebuilds in seconds (health views, latency estimates, last-good
// responses), so fronts scale horizontally behind a dumb load balancer
// and a front restart loses nothing durable.
package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"bear/internal/resultcache"
	"bear/internal/retry"
)

// ShardConfig names one bearserve instance.
type ShardConfig struct {
	ID  string // stable identity; placement hashes this, so renaming moves data
	URL string // base URL, e.g. http://10.0.0.7:8080
}

// Config tunes a Cluster. The zero value of every field has a sensible
// default; only Shards is required.
type Config struct {
	Shards      []ShardConfig
	Replication int // replicas per graph R (default 2, clamped to the shard count)

	Health HealthConfig

	// ReadTimeout bounds one read attempt against one shard (default 10s);
	// failover and hedging fire within it, not after it.
	ReadTimeout time.Duration
	// WriteTimeout bounds one mutation attempt against one shard (default
	// 5m — an upload triggers preprocessing, which is allowed to be slow).
	WriteTimeout time.Duration
	// ReadBudget caps the total wall clock one read spends across failover
	// attempts (default 20s).
	ReadBudget time.Duration

	// HedgeDelay, when positive, fixes the hedge deadline. Zero selects
	// the adaptive deadline: the hedgeQuantile of observed attempt
	// latency, clamped to [hedgeMin, hedgeMax].
	HedgeDelay   time.Duration
	DisableHedge bool

	// StaleTTL is how old a last-good response may be and still be served
	// under degradation (default 5m, also when zero; a negative value
	// disables stale serving, degrading straight to 503).
	StaleTTL time.Duration

	// ErrorLog receives proxy errors (default: the log package's standard
	// logger).
	ErrorLog *log.Logger

	// Transport overrides the upstream transport (tests inject fault
	// injectors and tight timeouts through it).
	Transport http.RoundTripper
}

func (c *Config) fillDefaults() {
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.Replication > len(c.Shards) {
		c.Replication = len(c.Shards)
	}
	c.Health.fillDefaults()
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 10 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Minute
	}
	if c.ReadBudget <= 0 {
		c.ReadBudget = 20 * time.Second
	}
	if c.StaleTTL == 0 {
		c.StaleTTL = 5 * time.Minute
	}
}

const (
	// The adaptive hedge deadline: this quantile of observed attempt
	// latency, clamped to [hedgeMin, hedgeMax].
	hedgeQuantile = 0.95
	hedgeMin      = 5 * time.Millisecond
	hedgeMax      = time.Second
	// maxBodyBytes caps a buffered request body (bearserve's default
	// upload cap); maxRespBytes caps a buffered upstream response, graph
	// exports included.
	maxBodyBytes = 256 << 20
	maxRespBytes = 256 << 20
	// staleBudget bounds the last-good cache's bytes. The cache splits it
	// evenly over its shards and never keeps an answer larger than one
	// shard's share (512 KiB), such as the export of all but a tiny graph.
	staleBudget = 8 << 20
)

// Cluster coordinates reads and writes across the shard set.
type Cluster struct {
	cfg        Config
	ring       *Ring
	shards     []*shard
	byID       map[string]*shard
	httpClient *http.Client
	stale      *resultcache.Cache // last-good answers; nil when StaleTTL < 0
	m          *frontMetrics
}

// New validates cfg and builds the coordinator. Callers normally follow
// with Start (the probe loop) and Handler (the HTTP surface).
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: at least one shard is required")
	}
	cfg.fillDefaults()
	c := &Cluster{cfg: cfg, byID: make(map[string]*shard, len(cfg.Shards))}
	ids := make([]string, 0, len(cfg.Shards))
	for _, sc := range cfg.Shards {
		if sc.ID == "" || sc.URL == "" {
			return nil, fmt.Errorf("cluster: shard needs both id and url, got %+v", sc)
		}
		if _, dup := c.byID[sc.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard id %q", sc.ID)
		}
		sh := &shard{id: sc.ID, base: strings.TrimRight(sc.URL, "/")}
		c.shards = append(c.shards, sh)
		c.byID[sc.ID] = sh
		ids = append(ids, sc.ID)
	}
	c.ring = NewRing(ids)
	// No overall client timeout: per-attempt contexts carry the deadline,
	// and one Client keeps connection pools shared across attempts.
	c.httpClient = &http.Client{Transport: cfg.Transport}
	if cfg.StaleTTL > 0 {
		c.stale = resultcache.New(staleBudget, cfg.StaleTTL)
	}
	c.m = newFrontMetrics(c)
	return c, nil
}

// Replicas returns graph's placement, primary first.
func (c *Cluster) Replicas(graph string) []string {
	return c.ring.Replicas(graph, c.cfg.Replication)
}

// replicaShards resolves placement to shard objects, ordered for reading:
// ring order within each health class, healthy class first, then
// half-open, then ejected — ejection never removes a replica outright, it
// only demotes it to last resort.
func (c *Cluster) replicaShards(graph string) []*shard {
	ids := c.Replicas(graph)
	byState := [3][]*shard{}
	for _, id := range ids {
		sh := c.byID[id]
		st, _, _ := sh.snapshotState()
		byState[st] = append(byState[st], sh)
	}
	out := make([]*shard, 0, len(ids))
	out = append(out, byState[Healthy]...)
	out = append(out, byState[HalfOpen]...)
	out = append(out, byState[Ejected]...)
	return out
}

// upstream is one buffered shard response.
type upstream struct {
	shard  *shard
	status int
	header http.Header
	body   []byte
	hedged bool // answered by a hedge attempt that beat the primary
}

// shardFailure classifies a response status as "the shard is in trouble"
// (eject-worthy, failover-worthy): server errors, gateway errors, and
// shedding. 4xx — including 404 — are the request's or the placement's
// problem, not the shard's.
func shardFailure(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// attempt proxies one request to one shard and buffers the response.
// Health reporting and the attempt counters happen here, so every path —
// reads, hedges, fanout writes, repairs — feeds the same health view.
func (c *Cluster) attempt(ctx context.Context, sh *shard, method, uri string, contentType string, body []byte, timeout time.Duration) (*upstream, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, sh.base+uri, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	sh.m.attempts.Inc()
	start := time.Now()
	resp, err := c.httpClient.Do(req)
	if err != nil {
		c.reportAttempt(sh, false, err.Error())
		return nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxRespBytes))
	if err != nil {
		c.reportAttempt(sh, false, "reading response: "+err.Error())
		return nil, err
	}
	if shardFailure(resp.StatusCode) {
		c.reportAttempt(sh, false, fmt.Sprintf("HTTP %d", resp.StatusCode))
	} else {
		c.reportAttempt(sh, true, "")
		c.m.readLatency.Observe(time.Since(start).Seconds())
	}
	return &upstream{shard: sh, status: resp.StatusCode, header: resp.Header, body: respBody}, nil
}

func (c *Cluster) reportAttempt(sh *shard, ok bool, errText string) {
	if !ok {
		sh.m.attemptErrors.Inc()
	}
	if sh.report(ok, errText, &c.cfg.Health) {
		sh.m.ejections.Inc()
	}
}

// hedgeDelay picks the deadline after which a read asks a second replica:
// a fixed configured delay, or the configured quantile of observed
// attempt latency once enough samples exist, clamped so a cold histogram
// or a latency collapse cannot push hedging into uselessness (too late)
// or stampede (too early).
func (c *Cluster) hedgeDelay() time.Duration {
	if c.cfg.HedgeDelay > 0 {
		return c.cfg.HedgeDelay
	}
	const minSamples = 20
	if c.m.readLatency.Count() < minSamples {
		return hedgeMax
	}
	d := time.Duration(c.m.readLatency.Quantile(hedgeQuantile) * float64(time.Second))
	return min(max(d, hedgeMin), hedgeMax)
}

// readResult is what one read attempt against sh resolved to, for the
// failover loop.
type readResult struct {
	sh     *shard
	up     *upstream
	err    error
	hedged bool
}

// read runs the full replica-failover + hedging read policy for one
// request and returns the response to forward, or nil when every replica
// failed (the caller degrades). body is the buffered request body for
// POST-shaped reads; it is replayed verbatim on every attempt.
func (c *Cluster) read(ctx context.Context, graph, method, uri, contentType string, body []byte) (*upstream, bool) {
	cands := c.replicaShards(graph)
	if len(cands) == 0 {
		return nil, false
	}
	budget := retry.StartBudget(time.Now(), c.cfg.ReadBudget)
	resCh := make(chan readResult, len(cands))
	launched := 0
	launch := func(hedged bool) bool {
		if launched >= len(cands) {
			return false
		}
		if launched > 0 && !budget.Allows(time.Now(), 0) {
			return false
		}
		sh := cands[launched]
		launched++
		go func() {
			up, err := c.attempt(ctx, sh, method, uri, contentType, body, c.cfg.ReadTimeout)
			resCh <- readResult{sh: sh, up: up, err: err, hedged: hedged}
		}()
		return true
	}
	launch(false)

	var hedgeCh <-chan time.Time
	if !c.cfg.DisableHedge && len(cands) > 1 {
		t := time.NewTimer(c.hedgeDelay())
		defer t.Stop()
		hedgeCh = t.C
	}

	var notFound *upstream // the 404 to forward if every replica agrees
	sawFailure := false
	pending := 1
	for pending > 0 {
		select {
		case <-ctx.Done():
			return nil, sawFailure
		case <-hedgeCh:
			hedgeCh = nil
			if launch(true) {
				pending++
				c.m.hedges.Inc()
			}
		case res := <-resCh:
			pending--
			switch {
			case res.err == nil && !shardFailure(res.up.status) && res.up.status != http.StatusNotFound:
				// An answer (success or a caller error like 400) — forward.
				if res.hedged {
					c.m.hedgeWins.Inc()
					res.up.hedged = true
				}
				return res.up, sawFailure
			case res.err == nil && res.up.status == http.StatusNotFound:
				// This replica doesn't hold the graph. With per-graph
				// replication below R (PUT ?replicas=), secondaries
				// legitimately 404 — keep trying; only if every replica
				// agrees is the graph truly absent.
				notFound = res.up
				if launch(false) {
					pending++
				}
			default:
				sawFailure = true
				res.sh.m.failovers.Inc()
				if launch(false) {
					pending++
				}
			}
		}
	}
	if notFound != nil && !sawFailure {
		return notFound, false
	}
	return nil, sawFailure
}

// logf mirrors the server's logging convention.
func (c *Cluster) logf(format string, args ...interface{}) {
	if c.cfg.ErrorLog != nil {
		c.cfg.ErrorLog.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}
