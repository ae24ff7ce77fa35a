package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"bear"
	"bear/server"
)

// reference is a direct bear.Dynamic on the same edge list the cluster was
// given, built with the options bearserve forces (KeepH). Go's JSON
// round-trips float64 exactly, so served scores must equal its bit for bit.
type reference struct {
	d *bear.Dynamic
}

func newReference(edgeList []byte) (*reference, error) {
	g, err := bear.LoadEdgeList(bytes.NewReader(edgeList))
	if err != nil {
		return nil, fmt.Errorf("reference edge list: %w", err)
	}
	d, err := bear.NewDynamic(g, bear.Options{KeepH: true})
	if err != nil {
		return nil, fmt.Errorf("reference preprocessing: %w", err)
	}
	return &reference{d: d}, nil
}

func topOf(scores []float64, top int) []server.ScoredNode {
	ids := bear.TopK(scores, min(top, len(scores)))
	out := make([]server.ScoredNode, len(ids))
	for i, u := range ids {
		out[i] = server.ScoredNode{Node: u, Score: scores[u]}
	}
	return out
}

// expect computes the answer a read must return, one list per seed (one
// list in all for ppr).
func (r *reference) expect(o op) ([][]server.ScoredNode, error) {
	switch o.kind {
	case kQuery, kTopK, kBatch:
		var out [][]server.ScoredNode
		for _, s := range o.seeds {
			scores, err := r.d.Query(s)
			if err != nil {
				return nil, err
			}
			out = append(out, topOf(scores, o.top))
		}
		return out, nil
	case kPPR:
		q := make([]float64, r.d.Graph().N())
		for i, s := range o.seeds {
			q[s] = o.weights[i]
		}
		scores, err := r.d.QueryDist(q)
		if err != nil {
			return nil, err
		}
		return [][]server.ScoredNode{topOf(scores, o.top)}, nil
	case kCandidates:
		vecs, err := r.d.QueryBatch(o.seeds, 0)
		if err != nil {
			return nil, err
		}
		out := make([][]server.ScoredNode, len(o.seeds))
		for j, s := range o.seeds {
			for _, u := range bear.TopKCandidates(r.d.Graph(), vecs[j], s, o.top) {
				out[j] = append(out[j], server.ScoredNode{Node: u, Score: vecs[j][u]})
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("%s is not a read", o.kind)
}

// check compares one recorded read with the reference. A topk answer
// certified by local push carries estimated scores, so only its node set
// is compared.
func (r *reference) check(rec record) error {
	want, err := r.expect(rec.op)
	if err != nil {
		return fmt.Errorf("reference %s: %w", rec.op.kind, err)
	}
	if len(want) != len(rec.lists) {
		return fmt.Errorf("%s: %d result lists, want %d", rec.op.kind, len(rec.lists), len(want))
	}
	for i := range want {
		got := rec.lists[i]
		if rec.op.kind == kTopK && rec.pruned {
			if !sameNodes(got, want[i]) {
				return fmt.Errorf("topk seed %d: certified node set %v, want %v", rec.op.seeds[0], got, want[i])
			}
			continue
		}
		if len(got) != len(want[i]) {
			return fmt.Errorf("%s: list %d has %d results, want %d", rec.op.kind, i, len(got), len(want[i]))
		}
		for j := range got {
			if got[j] != want[i][j] {
				return fmt.Errorf("%s seeds %v: result %d is %+v, want %+v", rec.op.kind, rec.op.seeds, j, got[j], want[i][j])
			}
		}
	}
	return nil
}

func sameNodes(a, b []server.ScoredNode) bool {
	if len(a) != len(b) {
		return false
	}
	ids := func(l []server.ScoredNode) []int {
		out := make([]int, len(l))
		for i, s := range l {
			out[i] = s.Node
		}
		sort.Ints(out)
		return out
	}
	x, y := ids(a), ids(b)
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// replay applies the writer's executed updates and rebuilds in order, and
// reports where the reference's rebuild path differs from the served one.
func (r *reference) replay(writes []record) error {
	for _, rec := range writes {
		if rec.err != nil {
			continue
		}
		switch rec.op.kind {
		case kUpdate:
			if err := r.d.AddEdge(rec.op.u, rec.op.v, rec.op.w); err != nil {
				return fmt.Errorf("replaying update %d->%d: %w", rec.op.u, rec.op.v, err)
			}
		case kRebuild:
			rep, err := r.d.RebuildCtx(context.Background(), bear.RebuildAuto)
			if err != nil {
				return fmt.Errorf("replaying rebuild: %w", err)
			}
			if string(rep.Mode) != rec.rebuild.Mode {
				return fmt.Errorf("replayed rebuild ran %s, the cluster ran %s", rep.Mode, rec.rebuild.Mode)
			}
		}
	}
	return nil
}

// verify compares answers with the reference and returns how many it
// checked, how many were wrong, and any reads it sent for the purpose. On
// hot-read and cold-read it checks up to maxChecks sampled answers from
// recs; on churn it replays the writes and checks endStateReads fresh
// reads sent after the final rebuild.
func (r *runner) verify(ctx context.Context, ref *reference, recs []record) (checked, wrong int, sent []record) {
	check := func(rec record) {
		checked++
		if err := ref.check(rec); err != nil {
			wrong++
			fmt.Fprintf(os.Stderr, "e2ebench: wrong answer: %v\n", err)
		}
	}
	if r.writer == nil {
		for _, rec := range recs {
			if rec.lists != nil && checked < maxChecks {
				check(rec)
			}
		}
		return checked, wrong, nil
	}
	if err := ref.replay(r.writeLog); err != nil {
		wrong++
		fmt.Fprintf(os.Stderr, "e2ebench: wrong answer: %v\n", err)
	}
	for i := 0; i < endStateReads; i++ {
		rec := r.exec(ctx, r.readers[0], r.w.side.next(), true)
		sent = append(sent, rec)
		if rec.err == nil {
			check(rec)
		}
	}
	return checked, wrong, sent
}

// directP50s times the core calls behind query, topk, ppr and batch on
// the reference, per kind, for ops drawn from the side stream: each
// end-to-end p50 minus its direct p50 is the serving overhead.
func (r *reference) directP50s(s stream, perKind int) (map[opKind]float64, error) {
	samples := map[opKind][]float64{}
	for guard := 0; guard < 100*perKind; guard++ {
		o := s.next()
		if o.kind == kCandidates || len(samples[o.kind]) == perKind {
			continue
		}
		start := time.Now()
		var err error
		switch o.kind {
		case kQuery:
			_, err = r.d.Query(o.seeds[0])
		case kTopK:
			_, err = r.d.QueryTopK(o.seeds[0], o.top)
		case kPPR:
			q := make([]float64, r.d.Graph().N())
			for i, seed := range o.seeds {
				q[seed] = o.weights[i]
			}
			_, err = r.d.QueryDist(q)
		case kBatch:
			_, err = r.d.QueryBatch(o.seeds, 0)
		}
		if err != nil {
			return nil, err
		}
		samples[o.kind] = append(samples[o.kind], float64(time.Since(start).Microseconds()))
		if len(samples[kQuery]) == perKind && len(samples[kTopK]) == perKind &&
			len(samples[kPPR]) == perKind && len(samples[kBatch]) == perKind {
			break
		}
	}
	out := map[opKind]float64{}
	for k, xs := range samples {
		out[k] = median(xs)
	}
	return out, nil
}
