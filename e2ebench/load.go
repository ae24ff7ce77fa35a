package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bear/client"
	"bear/server"
)

// record is one executed op: its client-observed latency, its error, and
// for sampled reads the answer, kept for the correctness check.
type record struct {
	op      op
	lat     time.Duration
	err     error
	lists   [][]server.ScoredNode
	pruned  bool
	rebuild client.RebuildResult
}

// sampleEvery is the mean spacing of the reads whose answers are kept for
// the correctness check.
const sampleEvery = 16

// runner drives the closed loop: each connection has its own client and
// sends its next request only when the previous one has returned.
type runner struct {
	w       *workload
	h       *harness
	tr      *tracer
	writer  *client.Client   // churn only
	readers []*client.Client // one per reader stream
	// samplers pick, per reader connection, the reads whose answers are
	// kept; nil on churn, whose concurrent reads have no fixed answer.
	samplers []*rand.Rand

	// writeLog is every write the writer sent, in order, for the replay.
	// Only the writer goroutine appends; readers of it wait for the phase.
	writeLog []record
	// stages collects bear_rebuild_stage_seconds after each traced rebuild.
	stages map[string][]float64
}

func newRunner(w *workload, h *harness, tr *tracer, seed int64) *runner {
	r := &runner{w: w, h: h, tr: tr, stages: map[string][]float64{}}
	if w.writer != nil {
		r.writer = h.client()
	}
	for i := range w.readers {
		r.readers = append(r.readers, h.client())
		if w.writer == nil {
			r.samplers = append(r.samplers, rngFor(seed, 40+int64(i)))
		}
	}
	return r
}

// exec sends one op and times it from the client's side.
func (r *runner) exec(ctx context.Context, cl *client.Client, o op, keep bool) record {
	rec := record{op: o}
	traced := r.tr != nil && r.tr.on.Load()
	var ref spanRef
	var start int64
	if traced {
		ctx, ref, start = r.tr.startOp(ctx)
	}
	t0 := time.Now()
	lists, pruned, rb, err := call(ctx, cl, o)
	rec.lat = time.Since(t0)
	if traced {
		r.tr.endOp(ref, o.kind, start, err != nil)
	}
	if err == nil && o.kind.isRead() {
		err = checkShape(o, lists)
	}
	rec.err, rec.rebuild = err, rb
	if keep && err == nil {
		rec.lists, rec.pruned = lists, pruned
	}
	return rec
}

// call issues one op through the client package.
func call(ctx context.Context, cl *client.Client, o op) (lists [][]server.ScoredNode, pruned bool, rb client.RebuildResult, err error) {
	var res []server.ScoredNode
	switch o.kind {
	case kQuery:
		res, err = cl.Query(ctx, graphName, o.seeds[0], o.top)
		lists = [][]server.ScoredNode{res}
	case kTopK:
		res, pruned, err = cl.TopK(ctx, graphName, o.seeds[0], o.top)
		lists = [][]server.ScoredNode{res}
	case kPPR:
		seeds := make(map[int]float64, len(o.seeds))
		for i, s := range o.seeds {
			seeds[s] = o.weights[i]
		}
		res, err = cl.PPR(ctx, graphName, seeds, o.top)
		lists = [][]server.ScoredNode{res}
	case kBatch:
		var out []server.BatchSeedResult
		out, err = cl.QueryBatch(ctx, graphName, o.seeds, o.top)
		for i, x := range out {
			if i < len(o.seeds) && x.Seed != o.seeds[i] {
				err = fmt.Errorf("batch slot %d answers seed %d, want %d", i, x.Seed, o.seeds[i])
			}
			lists = append(lists, x.Results)
		}
	case kCandidates:
		var out []server.CandidateSeedResult
		out, err = cl.Candidates(ctx, graphName, o.seeds, o.top)
		for i, x := range out {
			if i < len(o.seeds) && x.Seed != o.seeds[i] {
				err = fmt.Errorf("candidates slot %d answers seed %d, want %d", i, x.Seed, o.seeds[i])
			}
			lists = append(lists, x.Candidates)
		}
	case kUpdate:
		_, err = cl.AddEdge(ctx, graphName, o.u, o.v, o.w)
	case kRebuild:
		rb, err = cl.RebuildMode(ctx, graphName, "auto")
	}
	return lists, pruned, rb, err
}

// checkShape rejects a read answer with the wrong number of lists or an
// empty or oversized list.
func checkShape(o op, lists [][]server.ScoredNode) error {
	want := len(o.seeds)
	if o.kind == kPPR {
		want = 1
	}
	if len(lists) != want {
		return fmt.Errorf("%s: %d result lists, want %d", o.kind, len(lists), want)
	}
	for _, l := range lists {
		if len(l) == 0 || len(l) > o.top {
			return fmt.Errorf("%s: result list of %d nodes", o.kind, len(l))
		}
	}
	return nil
}

// writerRound sends one round of updates, one every pace (the writer
// still waits for each reply), and the synchronous rebuild that follows
// them.
func (r *runner) writerRound(ctx context.Context, pace time.Duration) []record {
	recs := make([]record, 0, updatesPerRebuild+1)
	start := time.Now()
	for i := 0; i < updatesPerRebuild; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * pace)))
		recs = append(recs, r.exec(ctx, r.writer, r.w.writer.next(), false))
	}
	recs = append(recs, r.exec(ctx, r.writer, op{kind: kRebuild}, false))
	if r.tr != nil && r.tr.on.Load() {
		r.scrapeRebuildStages()
	}
	r.writeLog = append(r.writeLog, recs...)
	return recs
}

func (r *runner) scrapeRebuildStages() {
	p, err := scrape(r.h.shardURLs[0])
	if err != nil {
		return // a missed sample only thins the stage means
	}
	for _, st := range []string{"ordering", "block_lu", "splice", "schur_assembly", "schur_factor"} {
		r.stages[st] = append(r.stages[st], 1000*p.sum("bear_rebuild_stage_seconds", `stage="`+st+`"`))
	}
}

// warmup sends the workload's warm-up reads over the reader connections
// and, on churn, one writer round alongside them. It is untimed.
func (r *runner) warmup(ctx context.Context) []record {
	var mu sync.Mutex
	var all []record
	var wg sync.WaitGroup
	for c, cl := range r.readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var recs []record
			for i := c; i < len(r.w.warmup); i += len(r.readers) {
				recs = append(recs, r.exec(ctx, cl, r.w.warmup[i], false))
			}
			mu.Lock()
			all = append(all, recs...)
			mu.Unlock()
		}()
	}
	if r.writer != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs := r.writerRound(ctx, 0)
			mu.Lock()
			all = append(all, recs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// phase runs the closed loop for d. Readers stop at the deadline; on churn
// the writer finishes its current round after the deadline and the reader
// stops with it, so every phase ends on a rebuilt, update-free index.
// The warm-up's writer round is unpaced.
func (r *runner) phase(ctx context.Context, d time.Duration) *phaseResult {
	p := &phaseResult{}
	runtime.GC()
	runtime.ReadMemStats(&p.mem0)
	start := time.Now()
	deadline := start.Add(d)
	perConn := make([][]record, len(r.readers)+1)
	var writerDone atomic.Bool
	var wg sync.WaitGroup
	if r.writer != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer writerDone.Store(true)
			for time.Now().Before(deadline) {
				perConn[0] = append(perConn[0], r.writerRound(ctx, writerPace)...)
			}
		}()
	}
	for i, s := range r.w.readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var recs []record
			for {
				if r.writer != nil && writerDone.Load() || r.writer == nil && !time.Now().Before(deadline) {
					break
				}
				keep := r.samplers != nil && r.samplers[i].Intn(sampleEvery) == 0
				recs = append(recs, r.exec(ctx, r.readers[i], s.next(), keep))
			}
			perConn[i+1] = recs
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	runtime.ReadMemStats(&p.mem1)
	// Two collections: the first moves sync.Pool contents (solver
	// workspaces) to the victim cache, the second frees them, so HeapAlloc
	// is the heap the program actually keeps.
	runtime.GC()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.heapMB = float64(after.HeapAlloc) / 1e6
	for _, recs := range perConn {
		p.records = append(p.records, recs...)
	}
	for _, rec := range p.records {
		if rec.err != nil {
			p.failures++
		}
	}
	return p
}

// failureSummary names the first few distinct op errors.
func failureSummary(recs []record) string {
	seen := map[string]bool{}
	var out []string
	for _, rec := range recs {
		if rec.err == nil || len(out) == 3 {
			continue
		}
		msg := rec.op.kind.String() + ": " + rec.err.Error()
		if !seen[msg] {
			seen[msg] = true
			out = append(out, msg)
		}
	}
	return strings.Join(out, "; ")
}
