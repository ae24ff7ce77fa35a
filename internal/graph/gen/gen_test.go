package gen

import (
	"bytes"
	"testing"

	"bear/internal/graph"
)

func TestRMATBasic(t *testing.T) {
	g := RMAT(NewRMATPul(1000, 5000, 0.7, 1))
	if g.N() != 1000 {
		t.Fatalf("n = %d", g.N())
	}
	if g.M() == 0 || g.M() > 5000 {
		t.Fatalf("m = %d out of range", g.M())
	}
}

func TestRMATDeterministic(t *testing.T) {
	a := RMAT(NewRMATPul(256, 1000, 0.6, 7))
	b := RMAT(NewRMATPul(256, 1000, 0.6, 7))
	if a.M() != b.M() {
		t.Fatal("same seed gave different graphs")
	}
	for u := 0; u < a.N(); u++ {
		da, _ := a.Out(u)
		db, _ := b.Out(u)
		if len(da) != len(db) {
			t.Fatalf("node %d differs", u)
		}
	}
}

func TestRMATPulControlsHubStructure(t *testing.T) {
	// Higher p_ul concentrates edges among low-id nodes: the top-degree
	// node holds a larger fraction of all distinct edges, and duplicate
	// sampling shrinks the distinct edge count.
	hubFraction := func(g *graph.Graph) float64 {
		mx := 0
		for _, d := range g.TotalDegrees() {
			if d > mx {
				mx = d
			}
		}
		return float64(mx) / float64(g.M())
	}
	lo := RMAT(NewRMATPul(1024, 8000, 0.5, 3))
	hi := RMAT(NewRMATPul(1024, 8000, 0.9, 3))
	if hubFraction(hi) <= hubFraction(lo) {
		t.Fatalf("p_ul=0.9 hub fraction %.4f not above p_ul=0.5 hub fraction %.4f",
			hubFraction(hi), hubFraction(lo))
	}
	if hi.M() >= lo.M() {
		t.Fatalf("p_ul=0.9 distinct edges %d not below p_ul=0.5 distinct edges %d",
			hi.M(), lo.M())
	}
}

func TestRMATPanicsOnBadProbs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for probabilities not summing to 1")
		}
	}()
	RMAT(RMATConfig{N: 10, M: 10, A: 0.5, B: 0.5, C: 0.5, D: 0.5})
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(500, 3, 2)
	if g.N() != 500 {
		t.Fatalf("n = %d", g.N())
	}
	// Connected by construction.
	_, count := g.Components()
	if count != 1 {
		t.Fatalf("BA graph has %d components", count)
	}
	// Heavy tail: max degree far above the minimum attachment count.
	mx := 0
	for _, d := range g.TotalDegrees() {
		if d > mx {
			mx = d
		}
	}
	if mx < 20 {
		t.Fatalf("max degree %d suspiciously small for preferential attachment", mx)
	}
}

// TestBarabasiAlbertDeterministic: a seed fixes the graph, edge for edge.
func TestBarabasiAlbertDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := BarabasiAlbert(2000, 3, 11).SaveEdgeList(&a); err != nil {
		t.Fatal(err)
	}
	if err := BarabasiAlbert(2000, 3, 11).SaveEdgeList(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two calls with the same seed gave different edge lists")
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(100, 400, 4)
	if g.N() != 100 || g.M() != 400 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	// No self loops, all edges distinct (guaranteed by construction).
	for u := 0; u < g.N(); u++ {
		if g.HasEdge(u, u) {
			t.Fatalf("self loop at %d", u)
		}
	}
}

func TestErdosRenyiClampsM(t *testing.T) {
	g := ErdosRenyi(3, 100, 1)
	if g.M() != 6 {
		t.Fatalf("m = %d, want clamped 6", g.M())
	}
}

func TestCavemanHubs(t *testing.T) {
	cfg := CavemanHubsConfig{Communities: 10, Size: 15, PIntra: 0.3, Hubs: 5, HubDeg: 20, Seed: 5}
	g := CavemanHubs(cfg)
	if g.N() != 10*15+5 {
		t.Fatalf("n = %d", g.N())
	}
	// Every cave is internally connected (ring backbone).
	labels, _ := g.Components()
	for cm := 0; cm < 10; cm++ {
		base := cm * 15
		for i := 1; i < 15; i++ {
			if labels[base] != labels[base+i] {
				t.Fatalf("cave %d disconnected", cm)
			}
		}
	}
}

func TestStarMail(t *testing.T) {
	cfg := StarMailConfig{Core: 10, Periphery: 200, LeafDeg: 2, PCore: 0.5, Seed: 6}
	g := StarMail(cfg)
	if g.N() != 210 {
		t.Fatalf("n = %d", g.N())
	}
	// Periphery nodes touch only core nodes.
	for u := 10; u < 210; u++ {
		dst, _ := g.Out(u)
		for _, v := range dst {
			if v >= 10 {
				t.Fatalf("leaf %d connects to leaf %d", u, v)
			}
		}
	}
}

func TestBipartite(t *testing.T) {
	g := Bipartite(20, 30, 100, 8)
	if g.N() != 50 {
		t.Fatalf("n = %d", g.N())
	}
	// No within-side edges.
	for u := 0; u < 20; u++ {
		dst, _ := g.Out(u)
		for _, v := range dst {
			if v < 20 {
				t.Fatalf("left-left edge %d-%d", u, v)
			}
		}
	}
	for u := 20; u < 50; u++ {
		dst, _ := g.Out(u)
		for _, v := range dst {
			if v >= 20 {
				t.Fatalf("right-right edge %d-%d", u, v)
			}
		}
	}
}

func TestBipartiteClampsM(t *testing.T) {
	g := Bipartite(2, 2, 100, 1)
	if g.M() != 8 { // 4 undirected edges = 8 directed
		t.Fatalf("m = %d, want 8", g.M())
	}
}

func TestRMATNoise(t *testing.T) {
	g := RMAT(RMATConfig{N: 256, M: 1500, A: 0.6, B: 0.15, C: 0.15, D: 0.1, Noise: 0.1, Seed: 11})
	if g.N() != 256 || g.M() == 0 {
		t.Fatalf("noisy RMAT n=%d m=%d", g.N(), g.M())
	}
}

func TestGeneratorPanics(t *testing.T) {
	cases := map[string]func(){
		"rmat size": func() { RMAT(RMATConfig{N: -1, M: 10, A: 1}) },
		"ba size":   func() { BarabasiAlbert(0, 2, 1) },
		"er size":   func() { ErdosRenyi(-5, 10, 1) },
		"caveman":   func() { CavemanHubs(CavemanHubsConfig{Communities: 0, Size: 5}) },
		"star":      func() { StarMail(StarMailConfig{Core: 0, Periphery: 5, LeafDeg: 1}) },
		"bipartite": func() { Bipartite(0, 5, 10, 1) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBarabasiAlbertSmallN(t *testing.T) {
	// n smaller than the initial clique size m0 = k+1 must still work.
	g := BarabasiAlbert(2, 5, 1)
	if g.N() != 2 {
		t.Fatalf("n = %d", g.N())
	}
}
