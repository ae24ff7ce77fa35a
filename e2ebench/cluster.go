package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"bear/client"
	"bear/internal/cluster"
	"bear/server"
)

// graphName is the name the benchmark uploads its graph under.
const graphName = "g"

// harness is an in-process cluster: two shards built like cmd/bearserve
// (server.New defaults) behind one front built like cmd/bearfront (R=2,
// default health, hedging and timeouts), each on a loopback listener.
type harness struct {
	frontURL  string
	shardURLs []string
	servers   []*http.Server
	serving   sync.WaitGroup
	stopProbe context.CancelFunc
	tr        *tracer // nil when the run is untraced
}

func startCluster(tr *tracer) (*harness, error) {
	h := &harness{tr: tr}
	for _, id := range []string{"a", "b"} {
		var handler http.Handler = server.New().Handler()
		if tr != nil {
			handler = tr.shardHandler(id, handler)
		}
		u, err := h.serve(handler)
		if err != nil {
			h.close()
			return nil, err
		}
		h.shardURLs = append(h.shardURLs, u)
		if tr != nil {
			tr.shardOf[strings.TrimPrefix(u, "http://")] = id
		}
	}
	cfg := cluster.Config{
		Shards:      []cluster.ShardConfig{{ID: "a", URL: h.shardURLs[0]}, {ID: "b", URL: h.shardURLs[1]}},
		Replication: 2,
		ErrorLog:    log.New(os.Stderr, "bearfront: ", log.LstdFlags),
	}
	if tr != nil {
		cfg.Transport = upstreamTransport{t: tr, base: http.DefaultTransport}
	}
	c, err := cluster.New(cfg)
	if err != nil {
		h.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	h.stopProbe = cancel
	c.Start(ctx)
	var front http.Handler = c.Handler()
	if tr != nil {
		front = tr.frontHandler(front)
	}
	if h.frontURL, err = h.serve(front); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

func (h *harness) serve(handler http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listening on loopback: %w", err)
	}
	srv := &http.Server{Handler: handler}
	h.servers = append(h.servers, srv)
	h.serving.Add(1)
	go func() {
		defer h.serving.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

// client returns a client for one connection of the load. Traced runs
// wrap its transport; untraced runs use the client package's defaults.
func (h *harness) client() *client.Client {
	if h.tr == nil {
		return client.New(h.frontURL)
	}
	return client.New(h.frontURL, client.WithHTTPClient(&http.Client{
		Timeout:   5 * time.Minute,
		Transport: clientTransport{t: h.tr, base: http.DefaultTransport},
	}))
}

// close shuts every listener down, waits for the serve loops to return,
// and stops the front's probe loop.
func (h *harness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range h.servers {
		_ = s.Shutdown(ctx) // best effort: the process is about to exit
	}
	h.serving.Wait()
	if h.stopProbe != nil {
		h.stopProbe()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// promSet is one /metrics scrape: series (name plus rendered labels) to value.
type promSet map[string]float64

func scrape(base string) (promSet, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: HTTP %d", base, resp.StatusCode)
	}
	p := promSet{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			p[line[:i]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	return p, nil
}

// sum adds every series of the named metric whose labels contain each of
// the given label matchers (e.g. `stage="ordering"`).
func (p promSet) sum(name string, labels ...string) float64 {
	var total float64
	for key, v := range p {
		base, lbl, _ := strings.Cut(key, "{")
		if base != name {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// scrapes is one scrape of the front and both shards.
type scrapes struct {
	front  promSet
	shards []promSet
}

func (h *harness) scrapeAll() (scrapes, error) {
	var s scrapes
	var err error
	if s.front, err = scrape(h.frontURL); err != nil {
		return s, err
	}
	for _, u := range h.shardURLs {
		p, err := scrape(u)
		if err != nil {
			return s, err
		}
		s.shards = append(s.shards, p)
	}
	return s, nil
}

// shardSum sums a metric over both shards.
func (s scrapes) shardSum(name string, labels ...string) float64 {
	var total float64
	for _, p := range s.shards {
		total += p.sum(name, labels...)
	}
	return total
}
