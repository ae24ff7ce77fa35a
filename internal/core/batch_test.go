package core

import (
	"sync"
	"testing"

	"bear/internal/graph/gen"
)

func TestQueryBatchMatchesSequential(t *testing.T) {
	g := gen.RMAT(gen.NewRMATPul(400, 2400, 0.7, 40))
	p, err := Preprocess(g, Options{K: 3})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	seeds := []int{0, 17, 42, 100, 250, 399, 42}
	batch, err := p.QueryBatch(seeds, 4)
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	for i, s := range seeds {
		want, err := p.Query(s)
		if err != nil {
			t.Fatalf("Query(%d): %v", s, err)
		}
		if d := maxAbsDiff(batch[i], want); d != 0 {
			t.Fatalf("batch result %d differs by %g", i, d)
		}
	}
}

func TestQueryBatchValidatesSeeds(t *testing.T) {
	g := gen.ErdosRenyi(20, 60, 41)
	p, err := Preprocess(g, Options{K: 1})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	if _, err := p.QueryBatch([]int{0, 25}, 2); err == nil {
		t.Fatal("expected out-of-range error")
	}
	out, err := p.QueryBatch(nil, 4)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %d results", err, len(out))
	}
}

func TestConcurrentQueriesAreSafe(t *testing.T) {
	// Precomputed is documented safe for concurrent use; hammer it from
	// many goroutines and verify results stay deterministic.
	g := gen.BarabasiAlbert(300, 2, 42)
	p, err := Preprocess(g, Options{K: 2})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	want, err := p.Query(7)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := p.Query(7)
			if err != nil {
				errs <- err
				return
			}
			if maxAbsDiff(got, want) != 0 {
				errs <- errNondeterministic
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errNondeterministic = &nondeterministicError{}

type nondeterministicError struct{}

func (*nondeterministicError) Error() string { return "concurrent query result differs" }

func TestNoHubOrderStillExact(t *testing.T) {
	g := gen.RMAT(gen.NewRMATPul(200, 1200, 0.6, 43))
	p, err := Preprocess(g, Options{K: 3, NoHubOrder: true})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	got, err := p.Query(11)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	q := make([]float64, g.N())
	q[11] = 1
	want := directSolve(t, g, p.C, q)
	if d := maxAbsDiff(got, want); d > 1e-9 {
		t.Fatalf("NoHubOrder broke exactness: diff %g", d)
	}
}
