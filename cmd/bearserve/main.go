// Command bearserve runs the BEAR HTTP query service.
//
// Usage:
//
//	bearserve -addr :8080 -graph social=edges.txt -graph web=crawl.mtx
//
// Graphs named on the command line are preprocessed at startup; more can
// be uploaded at runtime with PUT /v1/graphs/{name}. With -snapshot the
// registry is restored from the file at boot (if present), persisted on
// demand via POST /v1/snapshot, and written one final time on graceful
// shutdown. SIGINT/SIGTERM drain in-flight requests before exiting. See
// package bear/server for the API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bear"
	"bear/server"
)

// graphFlags collects repeated -graph name=path arguments.
type graphFlags []string

func (g *graphFlags) String() string { return strings.Join(*g, ",") }

func (g *graphFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*g = append(*g, v)
	return nil
}

func main() {
	var graphs graphFlags
	addr := flag.String("addr", ":8080", "listen address")
	c := flag.Float64("c", 0, "restart probability (default 0.05)")
	drop := flag.Float64("drop", 0, "drop tolerance ξ (0 = BEAR-Exact)")
	rebuild := flag.Int("rebuild-threshold", 64, "auto-rebuild after this many updated nodes (0 = never)")
	rebuildChurn := flag.Float64("rebuild-churn", 0, "max dirty-node fraction for incremental rebuilds before falling back to full (0 = default 0.10)")
	maxConc := flag.Int("max-concurrent", 256, "in-flight request bound before load shedding (0 = unbounded)")
	queryTimeout := flag.Duration("query-timeout", 0, "per-query deadline (0 = none)")
	snapshot := flag.String("snapshot", "", "registry snapshot file: restored at boot, written on shutdown and POST /v1/snapshot")
	drain := flag.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "result cache budget in bytes (negative = disable caching)")
	cacheTTL := flag.Duration("cache-ttl", 0, "result cache entry lifetime (0 = until evicted; invalidation is by epoch, not TTL)")
	pprofAddr := flag.String("pprof", "", "listen address for net/http/pprof (empty = disabled); keep it off public interfaces")
	metrics := flag.Bool("metrics", true, "serve Prometheus metrics at GET /metrics")
	ord := flag.String("ordering", "", "reordering engine: slashburn|mindeg (default slashburn)")
	traceSlow := flag.Duration("trace-slow", 0, "trace every query and log a per-stage breakdown for ones slower than this (0 = off), e.g. -trace-slow=50ms")
	flag.Var(&graphs, "graph", "name=path of a graph to preprocess at startup (repeatable)")
	flag.Parse()

	s := server.New()
	s.RebuildThreshold = *rebuild
	s.RebuildMaxChurn = *rebuildChurn
	s.MaxConcurrent = *maxConc
	s.QueryTimeout = *queryTimeout
	s.SnapshotPath = *snapshot
	s.CacheMaxBytes = *cacheBytes
	s.CacheTTL = *cacheTTL
	s.EnableMetrics = *metrics
	s.TraceSlow = *traceSlow
	s.DefaultOrdering = *ord

	if *pprofAddr != "" {
		// A separate listener keeps the profiling surface off the service
		// port: the API can face a load balancer while pprof stays on
		// localhost. Registered on a private mux, not DefaultServeMux, so
		// nothing else can sneak handlers onto it.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				log.Printf("bearserve: pprof listener: %v", err)
			}
		}()
	}

	if *snapshot != "" {
		switch err := s.LoadSnapshot(*snapshot); {
		case err == nil:
			log.Printf("restored registry from %s", *snapshot)
		case errors.Is(err, os.ErrNotExist):
			log.Printf("no snapshot at %s; starting empty", *snapshot)
		default:
			// A corrupt snapshot is a hard error: silently starting empty
			// would look like data loss with no explanation.
			log.Fatalf("bearserve: %v", err)
		}
	}

	opts := bear.Options{C: *c, DropTol: *drop, Ordering: *ord}
	for _, spec := range graphs {
		name, path, _ := strings.Cut(spec, "=")
		if err := loadInto(s, name, path, opts); err != nil {
			log.Fatalf("bearserve: loading %s: %v", spec, err)
		}
		log.Printf("preprocessed %s from %s", name, path)
	}

	srv := &http.Server{Addr: *addr, Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("bearserve listening on %s", *addr)
		errCh <- srv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		log.Fatalf("bearserve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("shutting down: draining in-flight requests (up to %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("bearserve: shutdown: %v", err)
	}
	if *snapshot != "" {
		if err := s.SaveSnapshot(*snapshot); err != nil {
			log.Fatalf("bearserve: final snapshot: %v", err)
		}
		log.Printf("registry snapshot written to %s", *snapshot)
	}
}

func loadInto(s *server.Server, name, path string, opts bear.Options) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var g *bear.Graph
	if strings.HasSuffix(path, ".mtx") {
		g, err = bear.LoadMatrixMarket(f)
	} else {
		g, err = bear.LoadEdgeList(f)
	}
	if err != nil {
		return err
	}
	return s.Add(name, g, opts)
}
