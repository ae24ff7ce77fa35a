package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// QueryBatch computes RWR vectors for many seeds, fanning blocked
// multi-RHS chunks out over workers goroutines (0 selects GOMAXPROCS).
// Results are indexed like seeds and bit-identical to Query on each seed.
// It allocates the results and calls QueryBatchToCtx.
func (p *Precomputed) QueryBatch(seeds []int, workers int) ([][]float64, error) {
	for _, s := range seeds {
		if s < 0 || s >= p.N {
			return nil, fmt.Errorf("core: seed %d out of range [0,%d)", s, p.N)
		}
	}
	out := make([][]float64, len(seeds))
	for i := range out {
		out[i] = make([]float64, p.N)
	}
	if err := p.QueryBatchToCtx(context.Background(), out, seeds, workers); err != nil {
		return nil, err
	}
	return out, nil
}

// QueryBatchToCtx computes RWR vectors for many seeds into caller-owned
// dst (indexed like seeds, each vector of length N), honoring
// cancellation and deadlines on ctx. Seeds in isolated blocks, which reach
// no hub, are answered first, one at a time (solveIsolated). The rest are
// grouped by diagonal block into chunks of the batch width; each chunk is
// one blocked solve (one factor traversal per stage for the whole chunk),
// and chunks fan out over workers goroutines (0 selects GOMAXPROCS), each
// holding one workspace for its whole share. Precomputed is read-only
// during queries, so the workers share it without locking. Cancellation
// is observed between seeds, between chunks and between the stages inside
// each; undone work is abandoned and the first context error returned.
func (p *Precomputed) QueryBatchToCtx(ctx context.Context, dst [][]float64, seeds []int, workers int) error {
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

	order, err := p.answerIsolated(ctx, dst, seeds, p.seedOrder(seeds))
	if err != nil || len(order) == 0 {
		return err
	}
	pos := make([]int, len(order))
	for i, ii := range order {
		pos[i] = p.Perm[seeds[ii]]
	}
	nb := p.batchWidth()
	nchunks := (len(order) + nb - 1) / nb
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nchunks {
		workers = nchunks
	}
	chunk := func(start int, ws *Workspace) error {
		end := min(start+nb, len(order))
		p.loadSeeds(ws, pos[start:end], 1)
		return p.solveLoaded(ctx, ws, pos[start:end], dst, order[start:end], p.C)
	}

	if workers <= 1 {
		ws := p.acquireWorkspace(nb)
		defer p.ReleaseWorkspace(ws)
		for start := 0; start < len(order); start += nb {
			if err := chunk(start, ws); err != nil {
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
			ws := p.acquireWorkspace(nb)
			defer p.ReleaseWorkspace(ws)
			for start := range next {
				if err := chunk(start, ws); err != nil {
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

// answerIsolated answers the seeds of order (batch indices) that lie in
// isolated blocks into dst and returns the others, in order, so every
// batch chunk carries only seeds whose r₂ ≠ 0. It reuses order's storage.
func (p *Precomputed) answerIsolated(ctx context.Context, dst [][]float64, seeds, order []int) ([]int, error) {
	rest := order[:0]
	var ws *Workspace
	for _, ii := range order {
		pos := p.Perm[seeds[ii]]
		if _, ok := p.isolatedBlock(pos); !ok {
			rest = append(rest, ii)
			continue
		}
		if ws == nil {
			ws = p.AcquireWorkspace()
			defer p.ReleaseWorkspace(ws)
		}
		if err := p.solveSeedTo(ctx, dst[ii], pos, 1, p.C, ws); err != nil {
			return nil, err
		}
	}
	return rest, nil
}

// seedOrder returns the batch indices reordered so seeds sharing a
// diagonal block are adjacent (hubs last), with original order preserved
// within each group. Chunks sliced from this order then consist of a few
// same-block runs, each serviced by one block-restricted forward pass.
func (p *Precomputed) seedOrder(seeds []int) []int {
	order := make([]int, len(seeds))
	for i := range order {
		order[i] = i
	}
	key := func(i int) int { return p.blockKey(p.Perm[seeds[i]]) }
	sort.Slice(order, func(a, b int) bool {
		ka, kb := key(order[a]), key(order[b])
		if ka != kb {
			return ka < kb
		}
		return order[a] < order[b]
	})
	return order
}
