package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// The front's HTTP surface: the shard /v1 API proxied unchanged (so
// client.Client points at a front or a single shard interchangeably),
// plus the cluster-only endpoints /v1/cluster/status and
// /v1/cluster/repair, plus the front's own /healthz, /readyz and
// /metrics. Requests are classified three ways:
//
//   - graph reads (query/topk/stats/accuracy/pagerank/export, and the
//     POST-shaped ppr/batch/candidates) go to one replica under the
//     failover+hedging read policy and degrade to stale-or-503 when the
//     whole replica set is down;
//   - graph mutations (put/delete/import/edges/rebuild) fan out to every
//     placement replica concurrently, with per-replica outcomes reported
//     in X-Replica-Outcome headers and partial success flagged
//     X-Degraded: partial;
//   - shard-global requests (list, snapshot, stats) scatter to all shards
//     and merge.

// Handler returns the front's HTTP handler.
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", c.handleFrontReady)
	mux.HandleFunc("GET /metrics", c.handleMetrics)

	mux.HandleFunc("GET /v1/cluster/status", c.instrument("cluster_status", c.handleClusterStatus))
	mux.HandleFunc("POST /v1/cluster/repair", c.instrument("cluster_repair", c.handleRepair))

	mux.HandleFunc("GET /v1/graphs", c.instrument("list", c.handleScatterList))
	mux.HandleFunc("GET /v1/stats", c.instrument("stats", c.handleScatterStats))
	mux.HandleFunc("POST /v1/snapshot", c.instrument("snapshot", c.handleSnapshotAll))

	mux.HandleFunc("PUT /v1/graphs/{name}", c.instrument("put", c.handleMutation))
	mux.HandleFunc("DELETE /v1/graphs/{name}", c.instrument("delete", c.handleMutation))
	mux.HandleFunc("GET /v1/graphs/{name}", c.instrument("graph_read", c.handleRead))
	mux.HandleFunc("GET /v1/graphs/{name}/{op}", c.instrument("graph_read", c.handleRead))
	mux.HandleFunc("PUT /v1/graphs/{name}/import", c.instrument("import", c.handleMutation))
	mux.HandleFunc("POST /v1/graphs/{name}/{op}", c.instrument("graph_post", c.handlePostOp))

	return mux
}

// handlePostOp splits POST-shaped requests: ppr, batch and candidates are
// reads that happen to carry a body, answered by one replica; edges and
// rebuild mutate replica state and fan out to every replica.
func (c *Cluster) handlePostOp(w http.ResponseWriter, r *http.Request) {
	switch r.PathValue("op") {
	case "ppr", "batch", "candidates":
		c.handleRead(w, r)
	default:
		// edges, rebuild — and unknown ops, which every shard will reject
		// identically, so the agreed 4xx forwards through the fanout rule.
		c.handleMutation(w, r)
	}
}

// ---- reads ----

func (c *Cluster) handleRead(w http.ResponseWriter, r *http.Request) {
	graph := r.PathValue("name")
	var body []byte
	if r.Method != http.MethodGet {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes))
		if err != nil {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				map[string]string{"error": "request body too large"})
			return
		}
	}
	key := staleKey(r, body)
	up, _ := c.read(r.Context(), graph, r.Method, r.URL.RequestURI(),
		r.Header.Get("Content-Type"), body)
	if up == nil {
		c.degrade(w, graph, key)
		return
	}
	if ct := up.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := up.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("X-Shard", up.shard.id)
	if up.hedged {
		w.Header().Set("X-Hedge", "win")
	}
	if up.status == http.StatusOK {
		c.stale.put(key, up.status, up.header.Get("Content-Type"), up.body)
	}
	w.WriteHeader(up.status)
	_, _ = w.Write(up.body)
}

// degrade is the end of the line for a read: every replica failed. Serve
// the last good response if it is fresh enough, else a machine-readable
// 503 — never a 500, and never an answer silently missing its context:
// both paths carry X-Degraded so callers can tell degraded from normal.
func (c *Cluster) degrade(w http.ResponseWriter, graph, key string) {
	if e, age, ok := c.stale.get(key, c.cfg.StaleTTL); ok {
		c.m.degradedStale.Inc()
		if e.contentType != "" {
			w.Header().Set("Content-Type", e.contentType)
		}
		w.Header().Set("X-Degraded", "stale")
		w.Header().Set("Age", strconv.Itoa(int(age/time.Second)))
		w.WriteHeader(e.status)
		_, _ = w.Write(e.body)
		return
	}
	c.m.degradedUnavailable.Inc()
	w.Header().Set("X-Degraded", "unavailable")
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{
		"error":  fmt.Sprintf("all replicas of graph %q are unavailable", graph),
		"reason": "no_replica_available",
		"graph":  graph,
	})
}

// ---- mutations ----

// ReplicaOutcome is one replica's result of a fanned-out mutation or a
// repair push.
type ReplicaOutcome struct {
	Shard  string `json:"shard"`
	OK     bool   `json:"ok"`
	Status int    `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

// fanout sends one buffered request to every shard in targets
// concurrently and collects per-replica outcomes plus the buffered
// responses, both in target order. Mutations deliberately ignore health
// state: a half-dead shard that can still apply a write should get it,
// and the outcome report tells the caller who missed it.
func (c *Cluster) fanout(r *http.Request, targets []*shard, method, uri, contentType string, body []byte) ([]ReplicaOutcome, []*upstream) {
	outcomes := make([]ReplicaOutcome, len(targets))
	ups := make([]*upstream, len(targets))
	done := make(chan int, len(targets))
	for i, sh := range targets {
		go func(i int, sh *shard) {
			up, err := c.attempt(r.Context(), sh, method, uri, contentType, body, c.cfg.WriteTimeout)
			o := ReplicaOutcome{Shard: sh.id}
			if err != nil {
				o.Error = err.Error()
			} else {
				o.Status = up.status
				o.OK = up.status < 400
				if !o.OK {
					o.Error = upstreamError(up)
				}
				ups[i] = up
			}
			outcomes[i] = o
			done <- i
		}(i, sh)
	}
	for range targets {
		<-done
	}
	return outcomes, ups
}

// firstOKUpstream picks the response a fully or partially successful
// mutation forwards to the client.
func firstOKUpstream(outcomes []ReplicaOutcome, ups []*upstream) *upstream {
	for i := range outcomes {
		if outcomes[i].OK {
			return ups[i]
		}
	}
	return nil
}

func upstreamError(up *upstream) string {
	var apiErr struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(up.body, &apiErr) == nil && apiErr.Error != "" {
		return apiErr.Error
	}
	return fmt.Sprintf("HTTP %d", up.status)
}

func (c *Cluster) handleMutation(w http.ResponseWriter, r *http.Request) {
	graph := r.PathValue("name")
	targets := c.mutationTargets(graph, r)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes))
	if err != nil {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			map[string]string{"error": "request body too large"})
		return
	}
	outcomes, ups := c.fanout(r, targets, r.Method, mutationURI(r), r.Header.Get("Content-Type"), body)
	c.writeFanoutResult(w, outcomes, firstOKUpstream(outcomes, ups))
}

// mutationTargets is the replica set a mutation fans out to: the graph's
// full placement, or — for PUT with ?replicas=N — the first N placement
// shards, which is how a caller opts a graph into reduced replication
// (N is clamped to [1, R]; the front is stateless, so later mutations
// still fan out to all R and rely on absent replicas answering 404).
func (c *Cluster) mutationTargets(graph string, r *http.Request) []*shard {
	ids := c.Replicas(graph)
	if r.Method == http.MethodPut {
		if v := r.URL.Query().Get("replicas"); v != "" {
			if n, err := strconv.Atoi(v); err == nil {
				if n < 1 {
					n = 1
				}
				if n < len(ids) {
					ids = ids[:n]
				}
			}
		}
	}
	out := make([]*shard, len(ids))
	for i, id := range ids {
		out[i] = c.byID[id]
	}
	return out
}

// mutationURI strips the front-only replicas parameter before the
// request goes to shards (bearserve rejects unknown PUT parameters).
func mutationURI(r *http.Request) string {
	q := r.URL.Query()
	if _, ok := q["replicas"]; !ok {
		return r.URL.RequestURI()
	}
	q.Del("replicas")
	u := *r.URL
	u.RawQuery = q.Encode()
	return u.RequestURI()
}

// writeFanoutResult turns per-replica outcomes into one client response.
// A 404 outcome counts as neither success nor failure when someone else
// succeeded: replicas of a reduced-replication graph legitimately lack
// it. Every replica's result rides along in an X-Replica-Outcome header.
func (c *Cluster) writeFanoutResult(w http.ResponseWriter, outcomes []ReplicaOutcome, firstOK *upstream) {
	okN, missN := 0, 0
	for _, o := range outcomes {
		w.Header().Add("X-Replica-Outcome",
			fmt.Sprintf("%s=%s", o.Shard, outcomeCode(o)))
		if o.OK {
			okN++
		} else if o.Status == http.StatusNotFound {
			missN++
		}
	}
	switch {
	case okN == len(outcomes) || (okN > 0 && okN+missN == len(outcomes)):
		forwardUpstream(w, firstOK)
	case okN > 0:
		c.m.degradedPartial.Inc()
		w.Header().Set("X-Degraded", "partial")
		forwardUpstream(w, firstOK)
	default:
		// Nobody succeeded. If every replica rejected the request the same
		// way (400 bad seed, 404 no such graph, 409 rebuild running), that
		// verdict is the answer — forward it. Mixed failures mean the
		// cluster, not the request, is the problem: 503.
		if agreed := agreedFailure(outcomes); agreed != nil {
			forwardUpstream(w, agreed)
			return
		}
		c.m.degradedUnavailable.Inc()
		w.Header().Set("X-Degraded", "unavailable")
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{
			"error":    "mutation failed on every replica",
			"reason":   "no_replica_available",
			"replicas": outcomes,
		})
	}
}

func outcomeCode(o ReplicaOutcome) string {
	if o.Status != 0 {
		return strconv.Itoa(o.Status)
	}
	return "error"
}

// agreedFailure returns a representative upstream when every outcome is
// the same client-error status (4xx other than 429), else nil. It relies
// on fanout buffering: outcome i's upstream is only consulted via status.
func agreedFailure(outcomes []ReplicaOutcome) *upstream {
	status := 0
	for _, o := range outcomes {
		if o.Status < 400 || o.Status >= 500 || o.Status == http.StatusTooManyRequests {
			return nil
		}
		if status == 0 {
			status = o.Status
		} else if o.Status != status {
			return nil
		}
	}
	if status == 0 {
		return nil
	}
	body, _ := json.Marshal(map[string]string{"error": outcomes[0].Error})
	return &upstream{status: status,
		header: http.Header{"Content-Type": []string{"application/json"}}, body: body}
}

func forwardUpstream(w http.ResponseWriter, up *upstream) {
	if up == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if ct := up.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if up.shard != nil {
		w.Header().Set("X-Shard", up.shard.id)
	}
	w.WriteHeader(up.status)
	_, _ = w.Write(up.body)
}

// ---- scatter endpoints ----

// handleScatterList merges GET /v1/graphs across all shards, deduplicating
// replicated graphs by name (first responder wins; replicas may disagree
// transiently about pending counts, and any answer is equally true).
func (c *Cluster) handleScatterList(w http.ResponseWriter, r *http.Request) {
	type listResp struct {
		Graphs []json.RawMessage `json:"graphs"`
	}
	outcomes, ups := c.fanout(r, c.shards, http.MethodGet, "/v1/graphs", "", nil)
	merged := make([]json.RawMessage, 0)
	seen := make(map[string]bool)
	okN := 0
	for i, o := range outcomes {
		if !o.OK || ups[i] == nil {
			continue
		}
		okN++
		var lr listResp
		if json.Unmarshal(ups[i].body, &lr) != nil {
			continue
		}
		for _, g := range lr.Graphs {
			var named struct {
				Name string `json:"name"`
			}
			if json.Unmarshal(g, &named) != nil || seen[named.Name] {
				continue
			}
			seen[named.Name] = true
			merged = append(merged, g)
		}
	}
	if okN == 0 {
		c.m.degradedUnavailable.Inc()
		w.Header().Set("X-Degraded", "unavailable")
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"error": "no shard reachable", "reason": "no_replica_available"})
		return
	}
	if okN < len(c.shards) {
		c.m.degradedPartial.Inc()
		w.Header().Set("X-Degraded", "partial")
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"graphs": merged})
}

// handleScatterStats reports every shard's /v1/stats document side by
// side, keyed by shard ID — per-shard resource numbers do not meaningfully
// sum, so the front presents rather than aggregates.
func (c *Cluster) handleScatterStats(w http.ResponseWriter, r *http.Request) {
	c.scatterByShard(w, r, "/v1/stats")
}

// handleSnapshotAll triggers POST /v1/snapshot on every shard.
func (c *Cluster) handleSnapshotAll(w http.ResponseWriter, r *http.Request) {
	c.scatterByShard(w, r, "/v1/snapshot")
}

func (c *Cluster) scatterByShard(w http.ResponseWriter, r *http.Request, uri string) {
	outcomes, ups := c.fanout(r, c.shards, r.Method, uri, "", nil)
	results := make(map[string]json.RawMessage, len(c.shards))
	okN := 0
	for i, o := range outcomes {
		if o.OK {
			okN++
			if ups[i] != nil && json.Valid(ups[i].body) {
				results[o.Shard] = ups[i].body
				continue
			}
		}
		errDoc, _ := json.Marshal(map[string]string{"error": o.Error})
		results[o.Shard] = errDoc
	}
	if okN == 0 {
		c.m.degradedUnavailable.Inc()
		w.Header().Set("X-Degraded", "unavailable")
		writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{
			"error": "no shard reachable", "reason": "no_replica_available",
			"shards": outcomes,
		})
		return
	}
	if okN < len(c.shards) {
		c.m.degradedPartial.Inc()
		w.Header().Set("X-Degraded", "partial")
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"shards": results})
}

// ---- cluster endpoints ----

func (c *Cluster) handleFrontReady(w http.ResponseWriter, r *http.Request) {
	notEjected := 0
	for _, sh := range c.shards {
		st, _, _ := sh.snapshotState()
		if st != Ejected {
			notEjected++
		}
	}
	status := http.StatusOK
	state := "ready"
	if notEjected == 0 {
		status = http.StatusServiceUnavailable
		state = "no_shards_available"
	}
	writeJSON(w, status, map[string]interface{}{
		"status": state, "shards_available": notEjected, "shards_total": len(c.shards),
	})
}

func (c *Cluster) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	type shardStatus struct {
		ID          string  `json:"id"`
		URL         string  `json:"url"`
		State       string  `json:"state"`
		SuccessRate float64 `json:"success_rate"`
		LastError   string  `json:"last_error,omitempty"`
	}
	resp := struct {
		Replication int           `json:"replication"`
		Shards      []shardStatus `json:"shards"`
		Replicas    []string      `json:"replicas,omitempty"`
	}{Replication: c.cfg.Replication}
	for _, sh := range c.shards {
		st, rate, lastErr := sh.snapshotState()
		resp.Shards = append(resp.Shards, shardStatus{
			ID: sh.id, URL: sh.base, State: st.String(),
			SuccessRate: rate, LastError: lastErr,
		})
	}
	if g := r.URL.Query().Get("graph"); g != "" {
		resp.Replicas = c.Replicas(g)
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- anti-entropy repair ----

// handleRepair re-pushes a graph from its healthiest, most advanced
// replica to lagging ones: POST /v1/cluster/repair?graph=g[&to=shardID].
// "Lagging" means the replica 404s the graph or disagrees with the source
// on node/edge counts; &to= forces a specific target regardless. The copy
// is the shard's own export/import snapshot stream, so a repaired replica
// is bit-identical to the source at copy time.
func (c *Cluster) handleRepair(w http.ResponseWriter, r *http.Request) {
	graph := r.URL.Query().Get("graph")
	if graph == "" {
		writeJSON(w, http.StatusBadRequest,
			map[string]string{"error": "missing required parameter: graph"})
		return
	}
	replicas := c.mutationTargets(graph, r)
	escaped := url.PathEscape(graph)

	// Survey the replica set: who has the graph, and how much of it.
	type view struct {
		sh    *shard
		found bool
		info  struct {
			Nodes int `json:"nodes"`
			Edges int `json:"edges"`
		}
	}
	views := make([]view, 0, len(replicas))
	for _, sh := range replicas {
		v := view{sh: sh}
		up, err := c.attempt(r.Context(), sh, http.MethodGet,
			"/v1/graphs/"+escaped, "", nil, c.cfg.ReadTimeout)
		if err == nil && up.status == http.StatusOK &&
			json.Unmarshal(up.body, &v.info) == nil {
			v.found = true
		}
		views = append(views, v)
	}

	// Source: the reachable replica with the most edges (ties: placement
	// order). Most edges ≈ most caught-up for an additive update stream.
	src := -1
	for i, v := range views {
		if v.found && (src < 0 || v.info.Edges > views[src].info.Edges) {
			src = i
		}
	}
	if src < 0 {
		c.m.repairErrors.Inc()
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"error":  fmt.Sprintf("no reachable replica holds graph %q", graph),
			"reason": "no_source_replica",
			"graph":  graph,
		})
		return
	}

	only := r.URL.Query().Get("to")
	var targets []*shard
	for i, v := range views {
		if i == src {
			continue
		}
		switch {
		case only != "":
			if v.sh.id == only {
				targets = append(targets, v.sh)
			}
		case !v.found,
			v.info.Nodes != views[src].info.Nodes,
			v.info.Edges != views[src].info.Edges:
			targets = append(targets, v.sh)
		}
	}

	resp := struct {
		Graph    string           `json:"graph"`
		Source   string           `json:"source"`
		Outcomes []ReplicaOutcome `json:"outcomes"`
	}{Graph: graph, Source: views[src].sh.id, Outcomes: []ReplicaOutcome{}}
	if len(targets) == 0 {
		// Nothing lagging: report the no-op honestly rather than recopying.
		writeJSON(w, http.StatusOK, resp)
		return
	}

	// Pull one export from the source, push it to every lagging target.
	export, err := c.attempt(r.Context(), views[src].sh, http.MethodGet,
		"/v1/graphs/"+escaped+"/export", "", nil, c.cfg.WriteTimeout)
	if err != nil || export.status != http.StatusOK {
		c.m.repairErrors.Inc()
		detail := "transfer failed"
		if err != nil {
			detail = err.Error()
		} else {
			detail = upstreamError(export)
		}
		writeJSON(w, http.StatusBadGateway, map[string]string{
			"error":  fmt.Sprintf("exporting %q from %s: %s", graph, views[src].sh.id, detail),
			"reason": "export_failed",
			"graph":  graph,
		})
		return
	}
	outcomes, _ := c.fanout(r, targets, http.MethodPut,
		"/v1/graphs/"+escaped+"/import", "application/octet-stream", export.body)
	resp.Outcomes = outcomes
	repaired := 0
	for _, o := range outcomes {
		if o.OK {
			repaired++
		}
	}
	if repaired > 0 {
		c.m.repairs.Inc()
	}
	if repaired < len(outcomes) {
		c.m.repairErrors.Inc()
	}
	c.logf("cluster: repaired graph %q from %s to %d/%d lagging replicas",
		graph, views[src].sh.id, repaired, len(outcomes))
	writeJSON(w, http.StatusOK, resp)
}

// ---- plumbing ----

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the front's endpoint metrics.
func (c *Cluster) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sr, r)
		c.observeRequest(endpoint, sr.status, time.Since(start))
	}
}
