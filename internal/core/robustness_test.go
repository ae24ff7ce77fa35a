package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bear/internal/fault"
	"bear/internal/graph/gen"
)

// --- context cancellation -------------------------------------------------

func TestQueryCtxCancelled(t *testing.T) {
	g := gen.ErdosRenyi(80, 400, 11)
	p, err := Preprocess(g, Options{K: 2})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dst := make([]float64, p.N)
	if err := p.QueryToCtx(ctx, dst, 0, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryToCtx on cancelled ctx = %v, want context.Canceled", err)
	}
	if err := p.QueryDistToCtx(ctx, dst, make([]float64, p.N), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryDistToCtx on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := p.QueryEffectiveImportanceCtx(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryEffectiveImportanceCtx on cancelled ctx = %v, want context.Canceled", err)
	}
	batch := [][]float64{make([]float64, p.N), make([]float64, p.N), make([]float64, p.N)}
	if err := p.QueryBatchToCtx(ctx, batch, []int{0, 1, 2}, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryBatchToCtx on cancelled ctx = %v, want context.Canceled", err)
	}
	// An already-expired deadline behaves the same way.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if err := p.QueryToCtx(dctx, dst, 0, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("QueryToCtx past deadline = %v, want context.DeadlineExceeded", err)
	}
	// A live context answers identically to the plain path.
	got := make([]float64, p.N)
	if err := p.QueryToCtx(context.Background(), got, 3, nil); err != nil {
		t.Fatalf("QueryToCtx: %v", err)
	}
	want, _ := p.Query(3)
	if d := maxAbsDiff(got, want); d != 0 {
		t.Fatalf("ctx and plain query differ by %g", d)
	}
}

func TestDynamicQueryCtxCancelled(t *testing.T) {
	g := gen.BarabasiAlbert(120, 2, 12)
	d, err := NewDynamic(g, Options{K: 2})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	// Pending updates route the query through the Woodbury correction.
	for i := 0; i < 4; i++ {
		if err := d.AddEdge(i, 100+i, 1); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got := make([]float64, d.n)
	if err := d.QueryToCtx(ctx, got, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("dynamic QueryToCtx on cancelled ctx = %v, want context.Canceled", err)
	}
	// The cancelled refresh must not have poisoned the cache: a live
	// query still matches a fresh preprocessing pass exactly.
	if err := d.QueryToCtx(context.Background(), got, 0); err != nil {
		t.Fatalf("QueryToCtx after cancellation: %v", err)
	}
	want := freshSolve(t, d.Graph(), 0)
	if diff := maxAbsDiff(got, want); diff > 1e-9 {
		t.Fatalf("post-cancellation query differs from fresh preprocess by %g", diff)
	}
}

// --- non-blocking rebuild -------------------------------------------------

func TestRebuildInProgressError(t *testing.T) {
	g := gen.ErdosRenyi(60, 300, 13)
	d, err := NewDynamic(g, Options{K: 2})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	d.mu.Lock()
	d.rebuilding = true
	d.mu.Unlock()
	if err := d.Rebuild(); !errors.Is(err, ErrRebuildInProgress) {
		t.Fatalf("Rebuild during rebuild = %v, want ErrRebuildInProgress", err)
	}
	if !d.RebuildInProgress() {
		t.Fatal("RebuildInProgress = false while flagged")
	}
	d.mu.Lock()
	d.rebuilding = false
	d.mu.Unlock()
	if err := d.Rebuild(); err != nil {
		t.Fatalf("Rebuild after clearing flag: %v", err)
	}
}

// TestRebuildPreservesWindowUpdates drives the snapshot/swap protocol
// deterministically: updates applied while the rebuild flag is up must
// land in sinceSnap and survive the swap as the new dirty set.
func TestRebuildPreservesWindowUpdates(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, 14)
	d, err := NewDynamic(g, Options{K: 2})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	if err := d.AddEdge(1, 90, 1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	// Simulate the rebuild window: flag up, snapshot taken.
	d.mu.Lock()
	d.rebuilding = true
	d.sinceSnap = nil
	snap := d.materializeLocked()
	d.mu.Unlock()

	// An update accepted during the window.
	if err := d.AddEdge(2, 91, 1); err != nil {
		t.Fatalf("AddEdge during window: %v", err)
	}

	p, err := Preprocess(snap, d.opts)
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	d.mu.Lock()
	d.rebuilding = false
	d.base, d.p = snap, p
	d.dirty = d.sinceSnap
	d.sinceSnap = nil
	d.capMat, d.hw = nil, nil
	d.mu.Unlock()

	if got := d.PendingNodes(); got != 1 {
		t.Fatalf("PendingNodes after swap = %d, want 1 (the window update)", got)
	}
	got, err := d.Query(2)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	want := freshSolve(t, d.Graph(), 2)
	if diff := maxAbsDiff(got, want); diff > 1e-9 {
		t.Fatalf("post-swap query differs from fresh preprocess by %g", diff)
	}
}

// TestConcurrentRebuildExact hammers a Dynamic with queries and updates
// while real rebuilds run; whatever interleaving happens, the final state
// must answer queries exactly like a fresh preprocessing of the final
// graph, and queries must never error or block on the rebuild.
func TestConcurrentRebuildExact(t *testing.T) {
	g := gen.RMAT(gen.NewRMATPul(300, 1800, 0.6, 15))
	d, err := NewDynamic(g, Options{K: 2})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	var work, readers sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 16)

	work.Add(1)
	go func() { // rebuild loop
		defer work.Done()
		for i := 0; i < 4; i++ {
			if err := d.Rebuild(); err != nil && !errors.Is(err, ErrRebuildInProgress) {
				errCh <- err
				return
			}
		}
	}()
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func(w int) { // query loop, runs until the writers finish
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := d.Query(rng.Intn(300)); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	work.Add(1)
	go func() { // update loop
		defer work.Done()
		rng := rand.New(rand.NewSource(200))
		for i := 0; i < 12; i++ {
			if err := d.AddEdge(rng.Intn(300), rng.Intn(300), 1); err != nil {
				errCh <- err
				return
			}
		}
	}()

	work.Wait()
	close(stop)
	readers.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("concurrent operation failed: %v", err)
	default:
	}

	for _, seed := range []int{0, 150, 299} {
		got, err := d.Query(seed)
		if err != nil {
			t.Fatalf("final Query(%d): %v", seed, err)
		}
		want := freshSolve(t, d.Graph(), seed)
		if diff := maxAbsDiff(got, want); diff > 1e-8 {
			t.Fatalf("seed %d: final state differs from fresh preprocess by %g", seed, diff)
		}
	}
}

// --- dynamic state persistence --------------------------------------------

func TestDynamicStateRoundtrip(t *testing.T) {
	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 6, Size: 12, PIntra: 0.4, Hubs: 3, HubDeg: 10, Seed: 16})
	d, err := NewDynamic(g, Options{K: 2, DropTol: 1e-5})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := d.AddEdge(i, 60+i, 1.5); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	var buf bytes.Buffer
	if err := d.SaveState(&buf); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	d2, err := LoadDynamic(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadDynamic: %v", err)
	}
	if d2.PendingNodes() != d.PendingNodes() {
		t.Fatalf("pending %d, want %d", d2.PendingNodes(), d.PendingNodes())
	}
	for seed := 0; seed < g.N(); seed += 13 {
		a, err := d.Query(seed)
		if err != nil {
			t.Fatalf("original Query(%d): %v", seed, err)
		}
		b, err := d2.Query(seed)
		if err != nil {
			t.Fatalf("restored Query(%d): %v", seed, err)
		}
		if diff := maxAbsDiff(a, b); diff != 0 {
			t.Fatalf("seed %d: restored state differs by %g (must be bit-identical)", seed, diff)
		}
	}
	// The restored instance keeps working: rebuild folds the updates.
	if err := d2.Rebuild(); err != nil {
		t.Fatalf("Rebuild on restored state: %v", err)
	}
	if d2.PendingNodes() != 0 {
		t.Fatalf("pending after rebuild = %d", d2.PendingNodes())
	}
}

func TestDynamicStateNoPendingOmitsCur(t *testing.T) {
	g := gen.ErdosRenyi(40, 160, 17)
	d, err := NewDynamic(g, Options{K: 1})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	var buf bytes.Buffer
	if err := d.SaveState(&buf); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	d2, err := LoadDynamic(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadDynamic: %v", err)
	}
	a, _ := d.Query(0)
	b, _ := d2.Query(0)
	if diff := maxAbsDiff(a, b); diff != 0 {
		t.Fatalf("clean-state roundtrip differs by %g", diff)
	}
}

func TestRestoreDynamicValidation(t *testing.T) {
	g := gen.ErdosRenyi(30, 120, 18)
	p, err := Preprocess(g, Options{K: 1})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	small := gen.ErdosRenyi(10, 30, 18)
	if _, err := RestoreDynamic(nil, g, p, nil, Options{}); err == nil {
		t.Fatal("expected nil-component error")
	}
	if _, err := RestoreDynamic(small, g, p, nil, Options{}); err == nil {
		t.Fatal("expected size-mismatch error")
	}
	if _, err := RestoreDynamic(g, g, p, []int{5, 3}, Options{}); err == nil {
		t.Fatal("expected unsorted-dirty error")
	}
	if _, err := RestoreDynamic(g, g, p, []int{99}, Options{}); err == nil {
		t.Fatal("expected out-of-range dirty error")
	}
	if _, err := RestoreDynamic(g, g, p, nil, Options{}); err != nil {
		t.Fatalf("valid restore rejected: %v", err)
	}
}

// --- corruption of serialized artifacts -----------------------------------

// TestLoadRejectsEveryByteFlip asserts the CRC framing catches a flip of
// any single byte — magic, header, payload, or footer — with a loud error
// and no panic, never a partially-populated result.
func TestLoadRejectsEveryByteFlip(t *testing.T) {
	g := gen.ErdosRenyi(40, 160, 19)
	p, err := Preprocess(g, Options{K: 1})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	valid := buf.Bytes()
	// Every byte for small offsets (magic + header), then a stride through
	// the payload, then every footer byte.
	var offsets []int64
	for off := int64(0); off < 64 && off < int64(len(valid)); off++ {
		offsets = append(offsets, off)
	}
	for off := int64(64); off < int64(len(valid))-footerLen; off += 97 {
		offsets = append(offsets, off)
	}
	for off := int64(len(valid)) - footerLen; off < int64(len(valid)); off++ {
		offsets = append(offsets, off)
	}
	for _, off := range offsets {
		corrupt := fault.Flip(valid, off, 0)
		got, err := Load(bytes.NewReader(corrupt))
		if err == nil {
			t.Fatalf("flip at offset %d of %d accepted", off, len(valid))
		}
		if got != nil {
			t.Fatalf("flip at offset %d returned non-nil Precomputed alongside error %v", off, err)
		}
	}
}

// TestLoadRejectsEveryTruncation cuts the file at a spread of lengths;
// each must fail loudly (the footer, or the payload decoder, notices).
func TestLoadRejectsEveryTruncation(t *testing.T) {
	g := gen.ErdosRenyi(40, 160, 20)
	p, err := Preprocess(g, Options{K: 1})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	valid := buf.Bytes()
	for cut := 0; cut < len(valid); cut += 1 + len(valid)/61 {
		if _, err := Load(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", cut, len(valid))
		}
	}
	// Including one byte short of complete.
	if _, err := Load(bytes.NewReader(valid[:len(valid)-1])); err == nil {
		t.Fatal("truncation by one byte accepted")
	}
}

func TestDynamicStateRejectsByteFlips(t *testing.T) {
	g := gen.ErdosRenyi(40, 200, 22)
	d, err := NewDynamic(g, Options{K: 1})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	if err := d.AddEdge(0, 39, 2); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	var buf bytes.Buffer
	if err := d.SaveState(&buf); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	valid := buf.Bytes()
	for off := int64(0); off < int64(len(valid)); off += 1 + int64(len(valid))/73 {
		if _, err := LoadDynamic(bytes.NewReader(fault.Flip(valid, off, 0))); err == nil {
			t.Fatalf("dynamic-state flip at offset %d accepted", off)
		}
	}
	for cut := 0; cut < len(valid); cut += 1 + len(valid)/53 {
		if _, err := LoadDynamic(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("dynamic-state truncation to %d bytes accepted", cut)
		}
	}
}

// TestSaveSurvivesFlakyWriter: a failing destination yields an error, not
// a panic or a silent half-written success.
func TestSaveSurvivesFlakyWriter(t *testing.T) {
	g := gen.ErdosRenyi(40, 160, 23)
	p, err := Preprocess(g, Options{K: 1})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	for _, n := range []int64{0, 7, 100, 4096} {
		if err := p.Save(&fault.FlakyWriter{W: new(bytes.Buffer), N: n}); err == nil {
			t.Fatalf("Save into writer failing after %d bytes: no error", n)
		}
	}
	d, err := NewDynamic(g, Options{K: 1})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	if err := d.SaveState(&fault.FlakyWriter{W: new(bytes.Buffer), N: 50}); err == nil {
		t.Fatal("SaveState into failing writer: no error")
	}
}
