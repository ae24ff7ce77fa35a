package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"bear/internal/graph"
	"bear/internal/graph/gen"
	"bear/internal/ordering"
	"bear/internal/sparse"
)

// orderingTestGraphs are the graphs the per-engine correctness tests
// sweep: one hub-and-spoke graph BEAR targets and one locally-clustered
// one where the engines disagree most about the partition.
func orderingTestGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"rmat":    gen.RMAT(gen.NewRMATPul(200, 1200, 0.7, 21)),
		"caveman": gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 6, Size: 14, PIntra: 0.3, Hubs: 4, HubDeg: 18, Seed: 22}),
	}
}

// TestPreprocessAllOrderingsMatchOracle: the RWR answer is a property of
// the graph, not the ordering, so every engine's index must agree with
// the dense LU oracle on H to solver precision.
func TestPreprocessAllOrderingsMatchOracle(t *testing.T) {
	for gname, g := range orderingTestGraphs() {
		f, err := sparse.LU(g.HMatrixCSC(DefaultC, false))
		if err != nil {
			t.Fatalf("%s: oracle LU: %v", gname, err)
		}
		for _, eng := range ordering.Names() {
			t.Run(gname+"/"+eng, func(t *testing.T) {
				p, err := Preprocess(g, Options{K: 2, Ordering: eng})
				if err != nil {
					t.Fatalf("Preprocess: %v", err)
				}
				if p.Stats.Ordering != eng {
					t.Errorf("Stats.Ordering = %q, want %q", p.Stats.Ordering, eng)
				}
				for _, seed := range []int{0, 3, g.N() - 1} {
					got, err := p.Query(seed)
					if err != nil {
						t.Fatalf("Query(%d): %v", seed, err)
					}
					want := make([]float64, g.N())
					want[seed] = DefaultC
					if err := f.Solve(want); err != nil {
						t.Fatalf("oracle solve: %v", err)
					}
					for i := range got {
						if math.Abs(got[i]-want[i]) > 1e-9 {
							t.Fatalf("seed %d node %d: index %g, oracle %g", seed, i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestPreprocessUnknownOrderingErrors: a typo'd engine name must fail
// preprocessing loudly, naming the known set, not silently fall back.
func TestPreprocessUnknownOrderingErrors(t *testing.T) {
	g := gen.ErdosRenyi(40, 200, 23)
	if _, err := Preprocess(g, Options{Ordering: "no-such-engine"}); err == nil {
		t.Fatal("Preprocess accepted an unknown ordering")
	} else if !strings.Contains(err.Error(), "no-such-engine") {
		t.Fatalf("error %q does not name the unknown engine", err)
	}
}

// TestIncrementalRebuildAllOrderings: the dirty-block path reuses the
// retained partition verbatim, so it must work — and stay consistent
// with a fresh preprocessing of the updated graph — under every
// built-in engine, not just SlashBurn.
func TestIncrementalRebuildAllOrderings(t *testing.T) {
	for _, eng := range ordering.Names() {
		t.Run(eng, func(t *testing.T) {
			rng := rand.New(rand.NewSource(24))
			d, err := NewDynamic(gen.RMAT(gen.NewRMATPul(200, 1200, 0.7, 21)), Options{K: 2, Ordering: eng})
			if err != nil {
				t.Fatalf("NewDynamic: %v", err)
			}
			applyEligibleChurn(t, rng, d, 0.03)
			rep, err := d.RebuildCtx(context.Background(), RebuildIncremental)
			if err != nil {
				t.Fatalf("incremental rebuild: %v", err)
			}
			if rep.Mode != RebuildIncremental || rep.FallbackReason != "" {
				t.Fatalf("mode=%s fallback=%q, want incremental with no fallback", rep.Mode, rep.FallbackReason)
			}
			seed := 7 % d.Precomputed().N
			got, err := d.Query(seed)
			if err != nil {
				t.Fatalf("query after rebuild: %v", err)
			}
			if diff := maxAbsDiff(got, freshSolve(t, d.Graph(), seed)); diff > 1e-9 {
				t.Fatalf("incremental rebuild under %s drifted %g from fresh preprocess", eng, diff)
			}
		})
	}
}

// TestSnapshotOrderingRoundTrip: selecting an engine other than
// SlashBurn switches the snapshot to the v3 format, which must restore the
// ordering name and answer queries bit-identically.
func TestSnapshotOrderingRoundTrip(t *testing.T) {
	for _, eng := range ordering.Names() {
		if eng == namelessOrdering {
			continue
		}
		t.Run(eng, func(t *testing.T) {
			d, err := NewDynamic(gen.RMAT(gen.NewRMATPul(150, 900, 0.7, 25)), Options{K: 2, Ordering: eng})
			if err != nil {
				t.Fatalf("NewDynamic: %v", err)
			}
			if err := d.AddEdge(1, 2, 2.5); err != nil {
				t.Fatalf("AddEdge: %v", err)
			}
			var buf strings.Builder
			if err := d.SaveState(&buf); err != nil {
				t.Fatalf("SaveState: %v", err)
			}
			if got := buf.String()[:8]; got != string(dynMagic3[:]) {
				t.Fatalf("non-default ordering saved with magic %q, want %q", got, dynMagic3)
			}
			d2, err := LoadDynamic(strings.NewReader(buf.String()))
			if err != nil {
				t.Fatalf("LoadDynamic: %v", err)
			}
			if got := d2.Options().Ordering; got != eng {
				t.Fatalf("restored Ordering = %q, want %q", got, eng)
			}
			for _, seed := range []int{0, 5} {
				a, err := d.Query(seed)
				if err != nil {
					t.Fatalf("original query: %v", err)
				}
				b, err := d2.Query(seed)
				if err != nil {
					t.Fatalf("restored query: %v", err)
				}
				if diff := maxAbsDiff(a, b); diff != 0 {
					t.Fatalf("restored query(%d) differs by %g, want bit-identical", seed, diff)
				}
			}
		})
	}
}

// TestSnapshotDefaultOrderingKeepsOldFormat: SlashBurn-ordered snapshots
// must stay byte-compatible with the pre-ordering-engine formats so old
// readers and committed fixtures keep working; the name-less formats
// restore as slashburn explicitly, whatever the default engine is.
func TestSnapshotDefaultOrderingKeepsOldFormat(t *testing.T) {
	d, err := NewDynamic(gen.ErdosRenyi(60, 300, 26), Options{K: 2})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	var buf strings.Builder
	if err := d.SaveState(&buf); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	if got := buf.String()[:8]; got == string(dynMagic3[:]) {
		t.Fatal("default ordering saved in the v3 format; old readers would refuse it")
	}
	d2, err := LoadDynamic(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("LoadDynamic: %v", err)
	}
	if got := d2.Options().Ordering; got != "slashburn" {
		t.Fatalf("name-less format restored Ordering = %q, want slashburn", got)
	}
}

// TestSnapshotUnknownOrderingRefused: a snapshot naming an engine this
// build does not register must fail to load with an explicit error —
// querying it with the wrong ordering's index would be silently wrong.
// The name is injected by mutating the in-memory options before saving,
// standing in for a file written by a build with an extra engine.
func TestSnapshotUnknownOrderingRefused(t *testing.T) {
	d, err := NewDynamic(gen.ErdosRenyi(60, 300, 27), Options{K: 2, Ordering: "mindeg"})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	d.opts.Ordering = "engine-from-the-future"
	var buf strings.Builder
	if err := d.SaveState(&buf); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	if _, err := LoadDynamic(strings.NewReader(buf.String())); err == nil {
		t.Fatal("LoadDynamic accepted a snapshot naming an unknown ordering")
	} else if !strings.Contains(err.Error(), "engine-from-the-future") {
		t.Fatalf("error %q does not name the unknown engine", err)
	}
	if _, err := RestoreDynamic(d.base, d.base, d.Precomputed(), nil, Options{Ordering: "engine-from-the-future"}); err == nil {
		t.Fatal("RestoreDynamic accepted an unknown ordering")
	}
}

// TestSnapshotV2FixtureRestores restores a committed BEARDY02 snapshot —
// written before the name-less formats were tied to SlashBurn and the
// retired option slots were pinned to 0, with KeepH on and four pending
// updates — and checks that it reports ordering slashburn, answers every
// seed bit-identically to a fresh Dynamic over the same graph and
// updates, and saves back to the same bytes, as does the fresh one.
func TestSnapshotV2FixtureRestores(t *testing.T) {
	raw, err := os.ReadFile("testdata/dynamic_v2_keeph_pending.bin")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(raw[:8]); got != string(dynMagic2[:]) {
		t.Fatalf("fixture magic %q, want %q", got, dynMagic2)
	}
	restored, err := LoadDynamic(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("LoadDynamic: %v", err)
	}
	if got := restored.Options().Ordering; got != "slashburn" {
		t.Fatalf("restored Ordering = %q, want slashburn", got)
	}

	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 6, Size: 10, PIntra: 0.3, Hubs: 3, HubDeg: 8, Seed: 22})
	fresh, err := NewDynamic(g, Options{K: 2, KeepH: true})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	for _, err := range []error{
		fresh.AddEdge(4, 60, 1.5),
		fresh.RemoveEdge(10, 16),
		fresh.UpdateNode(11, []int{10, 12, 30}, []float64{0.5, 2, 1}),
		fresh.AddEdge(0, 5, 3),
	} {
		if err != nil {
			t.Fatalf("update: %v", err)
		}
	}
	if restored.PendingNodes() != 4 || fresh.PendingNodes() != 4 {
		t.Fatalf("pending nodes: restored %d, fresh %d, want 4", restored.PendingNodes(), fresh.PendingNodes())
	}
	for seed := 0; seed < g.N(); seed++ {
		a, err := restored.Query(seed)
		if err != nil {
			t.Fatalf("restored Query(%d): %v", seed, err)
		}
		b, err := fresh.Query(seed)
		if err != nil {
			t.Fatalf("fresh Query(%d): %v", seed, err)
		}
		sameBits(t, fmt.Sprintf("Query(%d), restored vs fresh", seed), a, b)
	}
	for name, d := range map[string]*Dynamic{"restored": restored, "fresh": fresh} {
		var buf bytes.Buffer
		if err := d.SaveState(&buf); err != nil {
			t.Fatalf("%s SaveState: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), raw) {
			t.Fatalf("%s state saves to %d bytes that differ from the %d-byte fixture", name, buf.Len(), len(raw))
		}
	}
}
