// Command bearfront runs the BEAR cluster coordinator: a stateless front
// that places graphs on bearserve shards by consistent hashing, replicates
// them R ways, and serves the same /v1 API with health-checked failover,
// hedged reads, and graceful degradation.
//
// Usage:
//
//	bearfront -addr :8080 \
//	    -shard a=http://10.0.0.1:8080 \
//	    -shard b=http://10.0.0.2:8080 \
//	    -shard c=http://10.0.0.3:8080 \
//	    -replicas 2
//
// Shard IDs are placement identity: keep them stable across restarts and
// address changes (re-IDing a shard moves its keyspace; re-addressing it
// does not). Any number of fronts with the same -shard list can run behind
// a plain load balancer — placement is a pure function of the list, and
// everything else a front holds (health views, latency estimates, the
// last-good cache) is soft state it rebuilds in seconds.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bear/internal/cluster"
)

// shardFlags collects repeated -shard id=url arguments.
type shardFlags []cluster.ShardConfig

func (s *shardFlags) String() string {
	parts := make([]string, len(*s))
	for i, sc := range *s {
		parts[i] = sc.ID + "=" + sc.URL
	}
	return strings.Join(parts, ",")
}

func (s *shardFlags) Set(v string) error {
	id, u, ok := strings.Cut(v, "=")
	if !ok || id == "" || u == "" {
		return fmt.Errorf("want id=url, got %q", v)
	}
	*s = append(*s, cluster.ShardConfig{ID: id, URL: u})
	return nil
}

func main() {
	var shards shardFlags
	addr := flag.String("addr", ":8080", "listen address")
	replicas := flag.Int("replicas", 2, "replicas per graph (clamped to the shard count)")
	readTimeout := flag.Duration("read-timeout", 10*time.Second, "per-attempt deadline for reads against a shard")
	writeTimeout := flag.Duration("write-timeout", 5*time.Minute, "per-attempt deadline for mutations (uploads preprocess, so generous)")
	readBudget := flag.Duration("read-budget", 20*time.Second, "total wall clock one read may spend across failover attempts")
	hedgeDelay := flag.Duration("hedge-delay", 0, "fixed hedge deadline; 0 = adaptive (p95 of observed attempt latency)")
	noHedge := flag.Bool("no-hedge", false, "disable hedged reads")
	staleTTL := flag.Duration("stale-ttl", 5*time.Minute, "max age of a last-good response served under degradation (0 = the 5m default; negative = disable stale serving)")
	ejectAfter := flag.Duration("eject-duration", 5*time.Second, "cooldown before an ejected shard is re-tried half-open")
	probeEvery := flag.Duration("probe-interval", 2*time.Second, "active /readyz probe interval")
	probeFails := flag.Int("probe-failures", 3, "consecutive probe failures that eject a shard")
	successFloor := flag.Float64("success-floor", 0.5, "rolling success rate below which a shard is ejected")
	drain := flag.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests")
	flag.Var(&shards, "shard", "id=url of a bearserve shard (repeatable; at least one required)")
	flag.Parse()

	if len(shards) == 0 {
		log.Fatalf("bearfront: at least one -shard id=url is required")
	}

	c, err := cluster.New(cluster.Config{
		Shards:       shards,
		Replication:  *replicas,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		ReadBudget:   *readBudget,
		HedgeDelay:   *hedgeDelay,
		DisableHedge: *noHedge,
		StaleTTL:     *staleTTL,
		Health: cluster.HealthConfig{
			EjectDuration: *ejectAfter,
			ProbeInterval: *probeEvery,
			ProbeFailures: *probeFails,
			SuccessFloor:  *successFloor,
		},
		ErrorLog: log.New(os.Stderr, "", log.LstdFlags),
	})
	if err != nil {
		log.Fatalf("bearfront: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	c.Start(ctx)

	srv := &http.Server{Addr: *addr, Handler: c.Handler()}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("bearfront listening on %s (%d shards, R=%d)", *addr, len(shards), *replicas)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		log.Fatalf("bearfront: %v", err)
	case <-ctx.Done():
	}

	log.Printf("shutting down: draining in-flight requests (up to %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("bearfront: shutdown: %v", err)
	}
}
