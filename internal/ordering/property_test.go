package ordering_test

import (
	"reflect"
	"strings"
	"testing"

	"bear/internal/graph"
	"bear/internal/graph/gen"
	"bear/internal/ordering"
)

// orderingFixtures is the shared fixture table every engine must pass:
// random graphs with the hub structure the engines are designed for,
// structured graphs where the "right" answer is geometric rather than
// degree-driven, and degenerate shapes that exercise the boundary
// conditions (no edges, one node, everything-connected, self-loops).
func orderingFixtures() []struct {
	name string
	g    *graph.Graph
} {
	grid := func(rows, cols int) *graph.Graph {
		b := graph.NewBuilder(rows * cols)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				u := r*cols + c
				if c+1 < cols {
					b.AddUndirected(u, u+1, 1)
				}
				if r+1 < rows {
					b.AddUndirected(u, u+cols, 1)
				}
			}
		}
		return b.Build()
	}
	path := func(n int) *graph.Graph {
		b := graph.NewBuilder(n)
		for u := 0; u+1 < n; u++ {
			b.AddUndirected(u, u+1, 1)
		}
		return b.Build()
	}
	star := func(leaves int) *graph.Graph {
		b := graph.NewBuilder(leaves + 1)
		for u := 1; u <= leaves; u++ {
			b.AddUndirected(0, u, 1)
		}
		return b.Build()
	}
	complete := func(n int) *graph.Graph {
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v {
					b.AddEdge(u, v, 1)
				}
			}
		}
		return b.Build()
	}
	selfLoops := func(n int) *graph.Graph {
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			b.AddEdge(u, u, 2)
			if u+1 < n {
				b.AddUndirected(u, u+1, 1)
			}
		}
		return b.Build()
	}
	twoIslands := func() *graph.Graph {
		b := graph.NewBuilder(60)
		for u := 0; u < 25; u++ { // clique island
			for v := u + 1; v < 25; v++ {
				b.AddUndirected(u, v, 1)
			}
		}
		for u := 25; u+1 < 60; u++ { // path island
			b.AddUndirected(u, u+1, 1)
		}
		return b.Build()
	}
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"ba-powerlaw", gen.BarabasiAlbert(300, 2, 7)},
		{"rmat-hubby", gen.RMAT(gen.NewRMATPul(250, 1500, 0.8, 9))},
		{"caveman", gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 8, Size: 12, PIntra: 0.35, Hubs: 5, HubDeg: 18, Seed: 11})},
		{"grid", grid(12, 12)},
		{"path", path(64)},
		{"star", star(80)},
		{"single-node", graph.NewBuilder(1).Build()},
		{"no-edges", graph.NewBuilder(40).Build()},
		{"complete", complete(24)},
		{"self-loops", selfLoops(50)},
		{"two-islands", twoIslands()},
	}
}

// TestOrderingInvariants runs every built-in engine over the fixture
// table at two hub budgets and checks the full contract via Validate:
// bijective permutation with hubs last, positive position-ordered blocks
// covering exactly the spokes, no undirected edge between spokes of
// different blocks (the Lemma 1 precondition). Results must also be
// deterministic — two runs on the same graph bit-identical — because
// the incremental rebuild and the snapshot format both assume it.
func TestOrderingInvariants(t *testing.T) {
	for _, engName := range ordering.Names() {
		eng, err := ordering.Get(engName)
		if err != nil {
			t.Fatalf("Get(%q): %v", engName, err)
		}
		for _, fx := range orderingFixtures() {
			for _, k := range []int{1, 4} { // Params.K must be positive; core resolves the default before calling Run

				fx := fx
				t.Run(engName+"/"+fx.name, func(t *testing.T) {
					res, err := eng.Run(fx.g, ordering.Params{K: k})
					if err != nil {
						t.Fatalf("Run(k=%d): %v", k, err)
					}
					if err := ordering.Validate(fx.g, res); err != nil {
						t.Fatalf("Validate(k=%d): %v", k, err)
					}
					// SlashBurn returns 0 hubs on hubless degenerate graphs (core
					// handles N2 == 0); the new engines promise at least one hub.
					if n := fx.g.N(); n > 0 && engName != ordering.Default && res.NumHubs < 1 {
						t.Fatalf("k=%d: %d hubs on a %d-node graph; %s promises n2 >= 1", k, res.NumHubs, n, engName)
					}
					again, err := eng.Run(fx.g, ordering.Params{K: k})
					if err != nil {
						t.Fatalf("second Run(k=%d): %v", k, err)
					}
					if !reflect.DeepEqual(res, again) {
						t.Fatalf("k=%d: two runs on the same graph differ; engines must be deterministic", k)
					}
				})
			}
		}
	}
}

// TestRegistry covers the lookup surface: the empty name is the
// SlashBurn default, and unknown names error listing the known set.
func TestRegistry(t *testing.T) {
	def, err := ordering.Get("")
	if err != nil {
		t.Fatalf(`Get(""): %v`, err)
	}
	if def.Name() != ordering.Default {
		t.Fatalf(`Get("") = %q, want %q`, def.Name(), ordering.Default)
	}
	if _, err := ordering.Get("no-such-engine"); err == nil {
		t.Fatal("Get(unknown) did not error")
	} else if !strings.Contains(err.Error(), "no-such-engine") || !strings.Contains(err.Error(), ordering.Default) {
		t.Fatalf("Get(unknown) error %q should name the bad engine and list the known ones", err)
	}
	if got := ordering.Normalize(""); got != ordering.Default {
		t.Fatalf(`Normalize("") = %q`, got)
	}
}
