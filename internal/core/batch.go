package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// QueryBatch computes RWR vectors for many seeds, fanning blocked
// multi-RHS chunks out over workers goroutines (0 selects GOMAXPROCS).
// Results are indexed like seeds and bit-identical to Query on each seed.
// Precomputed is read-only during queries, so the workers share it without
// locking; each worker holds one BatchWorkspace for its whole share of the
// batch, so the only per-query allocation is the result vector.
func (p *Precomputed) QueryBatch(seeds []int, workers int) ([][]float64, error) {
	return p.QueryBatchCtx(context.Background(), seeds, workers)
}

// QueryBatchCtx is QueryBatch honoring cancellation and deadlines on ctx:
// cancellation is observed between chunk solves (and between the
// block-solve stages inside each), undone work is abandoned, and the first
// context error is returned.
//
// Seeds are reordered internally so that seeds sharing a diagonal block
// land in the same multi-RHS chunk (see QueryBatchTo); the returned slice
// is still indexed like seeds.
func (p *Precomputed) QueryBatchCtx(ctx context.Context, seeds []int, workers int) ([][]float64, error) {
	for _, s := range seeds {
		if s < 0 || s >= p.N {
			return nil, fmt.Errorf("core: seed %d out of range [0,%d)", s, p.N)
		}
	}
	out := make([][]float64, len(seeds))
	for i := range out {
		out[i] = make([]float64, p.N)
	}
	if err := p.queryBatchTo(ctx, out, seeds, workers, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// queryBatchTo is the one blocked batch solve behind QueryBatchCtx,
// QueryBatchTo and Dynamic.QueryBatchToCtx: it validates dst against
// seeds, groups same-block seeds into chunks of the batch width, and
// solves the chunks on up to workers goroutines (0 selects GOMAXPROCS),
// each holding one BatchWorkspace for its whole share. A single worker
// uses bw, or a pooled workspace when bw is nil.
func (p *Precomputed) queryBatchTo(ctx context.Context, dst [][]float64, seeds []int, workers int, bw *BatchWorkspace) error {
	if len(dst) != len(seeds) {
		return fmt.Errorf("core: %d destinations for %d seeds", len(dst), len(seeds))
	}
	for i, s := range seeds {
		if s < 0 || s >= p.N {
			return fmt.Errorf("core: seed %d out of range [0,%d)", s, p.N)
		}
		if len(dst[i]) != p.N {
			return fmt.Errorf("core: destination %d length %d, want %d", i, len(dst[i]), p.N)
		}
	}
	if len(seeds) == 0 {
		return nil
	}

	// Group same-block seeds into chunks of the batch width; each chunk is
	// one independent blocked solve, so chunks parallelize cleanly.
	order := p.seedOrder(seeds)
	nb := p.batchWidth()
	nchunks := (len(order) + nb - 1) / nb
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nchunks {
		workers = nchunks
	}

	if workers <= 1 {
		if bw == nil {
			bw = p.AcquireBatchWorkspace()
			defer p.ReleaseBatchWorkspace(bw)
		}
		for start := 0; start < len(order); start += nb {
			end := start + nb
			if end > len(order) {
				end = len(order)
			}
			if err := p.queryChunkTo(ctx, dst, seeds, order[start:end], bw); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bw := p.AcquireBatchWorkspace()
			defer p.ReleaseBatchWorkspace(bw)
			for start := range next {
				end := start + nb
				if end > len(order) {
					end = len(order)
				}
				if err := p.queryChunkTo(ctx, dst, seeds, order[start:end], bw); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
feed:
	for start := 0; start < len(order); start += nb {
		select {
		case next <- start:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}
