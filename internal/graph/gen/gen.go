// Package gen generates synthetic graphs. These serve as offline
// substitutes for the paper's real datasets: each generator reproduces the
// structural signature (degree skew, community structure, hub-and-spoke
// strength) that drives BEAR's performance, per Section 3.3 of the paper.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"bear/internal/graph"
)

// RMATConfig parameterizes the recursive matrix generator of Chakrabarti et
// al. The paper's Fig. 7 sweep uses PUL (probability of the upper-left
// quadrant) with the remaining probability split evenly, which is what
// NewRMATPul constructs.
type RMATConfig struct {
	N     int // number of nodes (rounded up to a power of two internally)
	M     int // number of directed edges to sample
	A     float64
	B     float64
	C     float64
	D     float64
	Noise float64 // per-level perturbation of quadrant probabilities
	Seed  int64
}

// NewRMATPul returns the R-MAT configuration the paper uses for Fig. 7:
// upper-left probability pul, the rest split evenly across the other three
// quadrants.
func NewRMATPul(n, m int, pul float64, seed int64) RMATConfig {
	rest := (1 - pul) / 3
	return RMATConfig{N: n, M: m, A: pul, B: rest, C: rest, D: rest, Seed: seed}
}

// RMAT samples an R-MAT graph. Duplicate edges are merged (weights summed)
// and self-loops kept, matching common practice. Isolated nodes may remain;
// they are retained so that n is exact.
func RMAT(cfg RMATConfig) *graph.Graph {
	if cfg.N <= 0 || cfg.M < 0 {
		panic(fmt.Sprintf("gen: bad RMAT size n=%d m=%d", cfg.N, cfg.M))
	}
	sum := cfg.A + cfg.B + cfg.C + cfg.D
	if math.Abs(sum-1) > 1e-9 {
		panic(fmt.Sprintf("gen: RMAT probabilities sum to %g, want 1", sum))
	}
	levels := 0
	for 1<<levels < cfg.N {
		levels++
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := graph.NewBuilder(cfg.N)
	for e := 0; e < cfg.M; e++ {
		u, v := 0, 0
		for l := 0; l < levels; l++ {
			a, bb, c := cfg.A, cfg.B, cfg.C
			if cfg.Noise > 0 {
				// Multiplicative noise keeps expected proportions.
				a *= 1 + cfg.Noise*(rng.Float64()*2-1)
				bb *= 1 + cfg.Noise*(rng.Float64()*2-1)
				c *= 1 + cfg.Noise*(rng.Float64()*2-1)
				d := cfg.D * (1 + cfg.Noise*(rng.Float64()*2-1))
				t := a + bb + c + d
				a, bb, c = a/t, bb/t, c/t
			}
			r := rng.Float64()
			switch {
			case r < a:
				// upper-left: nothing to add
			case r < a+bb:
				v |= 1 << l
			case r < a+bb+c:
				u |= 1 << l
			default:
				u |= 1 << l
				v |= 1 << l
			}
		}
		if u < cfg.N && v < cfg.N {
			b.AddEdge(u, v, 1)
		}
	}
	return b.Build()
}

// BarabasiAlbert grows a preferential-attachment graph: n nodes, each new
// node attaching k undirected edges to existing nodes with probability
// proportional to degree. This mimics the Routing (AS-level internet)
// dataset's heavy-tailed hub structure.
func BarabasiAlbert(n, k int, seed int64) *graph.Graph {
	if n <= 0 || k <= 0 {
		panic(fmt.Sprintf("gen: bad BA size n=%d k=%d", n, k))
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	// Repeated-endpoint list implements preferential attachment in O(1).
	targets := make([]int, 0, 2*n*k)
	m0 := k + 1
	if m0 > n {
		m0 = n
	}
	for u := 0; u < m0; u++ {
		for v := u + 1; v < m0; v++ {
			b.AddUndirected(u, v, 1)
			targets = append(targets, u, v)
		}
	}
	// Picks are attached in the order they were drawn, so the targets list,
	// and with it every later draw, depends only on the seed.
	chosen := make([]int, 0, k)
	for u := m0; u < n; u++ {
		chosen = chosen[:0]
		for len(chosen) < k {
			v := targets[rng.Intn(len(targets))]
			if v != u && !slices.Contains(chosen, v) {
				chosen = append(chosen, v)
			}
		}
		for _, v := range chosen {
			b.AddUndirected(u, v, 1)
			targets = append(targets, u, v)
		}
		targets = append(targets, u) // ensure every node is attachable
	}
	return b.Build()
}

// ErdosRenyi samples a G(n, m) graph with m distinct directed edges.
func ErdosRenyi(n, m int, seed int64) *graph.Graph {
	if n <= 0 || m < 0 {
		panic(fmt.Sprintf("gen: bad ER size n=%d m=%d", n, m))
	}
	if max := n * (n - 1); m > max {
		m = max
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	seen := make(map[[2]int]bool, m)
	for len(seen) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		b.AddEdge(u, v, 1)
	}
	return b.Build()
}

// CavemanHubsConfig parameterizes a community graph with global hubs: dense
// communities ("caves") plus a few high-degree nodes connected across
// communities. It mimics the Co-author dataset: strong community structure
// with a hub backbone.
type CavemanHubsConfig struct {
	Communities int     // number of caves
	Size        int     // nodes per cave
	PIntra      float64 // within-cave edge probability
	Hubs        int     // number of global hub nodes
	HubDeg      int     // edges from each hub into random caves
	Seed        int64
}

// CavemanHubs generates the community-with-hubs graph.
func CavemanHubs(cfg CavemanHubsConfig) *graph.Graph {
	if cfg.Communities <= 0 || cfg.Size <= 0 || cfg.Hubs < 0 {
		panic("gen: bad CavemanHubs configuration")
	}
	n := cfg.Communities*cfg.Size + cfg.Hubs
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := graph.NewBuilder(n)
	for cm := 0; cm < cfg.Communities; cm++ {
		base := cm * cfg.Size
		// A ring guarantees each cave is connected.
		for i := 0; i < cfg.Size; i++ {
			b.AddUndirected(base+i, base+(i+1)%cfg.Size, 1)
		}
		for i := 0; i < cfg.Size; i++ {
			for j := i + 2; j < cfg.Size; j++ {
				if rng.Float64() < cfg.PIntra {
					b.AddUndirected(base+i, base+j, 1)
				}
			}
		}
	}
	hubBase := cfg.Communities * cfg.Size
	for h := 0; h < cfg.Hubs; h++ {
		for e := 0; e < cfg.HubDeg; e++ {
			v := rng.Intn(hubBase)
			b.AddUndirected(hubBase+h, v, 1)
		}
	}
	return b.Build()
}

// StarMailConfig parameterizes a star-heavy graph mimicking the Email
// dataset: a small core of very high-degree nodes (mailing hubs), a large
// periphery touching only one or two core nodes, and sparse core-core
// traffic.
type StarMailConfig struct {
	Core      int     // number of hub (core) nodes
	Periphery int     // number of leaf nodes
	LeafDeg   int     // edges from each leaf to random core nodes
	PCore     float64 // core-core edge probability
	Seed      int64
}

// StarMail generates the star-heavy graph.
func StarMail(cfg StarMailConfig) *graph.Graph {
	if cfg.Core <= 0 || cfg.Periphery < 0 || cfg.LeafDeg <= 0 {
		panic("gen: bad StarMail configuration")
	}
	n := cfg.Core + cfg.Periphery
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := graph.NewBuilder(n)
	for i := 0; i < cfg.Core; i++ {
		for j := i + 1; j < cfg.Core; j++ {
			if rng.Float64() < cfg.PCore {
				b.AddUndirected(i, j, 1)
			}
		}
	}
	for l := 0; l < cfg.Periphery; l++ {
		u := cfg.Core + l
		for e := 0; e < cfg.LeafDeg; e++ {
			b.AddUndirected(u, rng.Intn(cfg.Core), 1)
		}
	}
	return b.Build()
}

// Bipartite samples a random bipartite graph with left and right node sets
// and m distinct undirected edges, used by the anomaly-detection example
// (Sun et al.'s neighborhood formation setting). Left nodes occupy ids
// [0, left) and right nodes [left, left+right).
func Bipartite(left, right, m int, seed int64) *graph.Graph {
	if left <= 0 || right <= 0 || m < 0 {
		panic(fmt.Sprintf("gen: bad bipartite size %dx%d", left, right))
	}
	if max := left * right; m > max {
		m = max
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(left + right)
	seen := make(map[[2]int]bool, m)
	for len(seen) < m {
		u, v := rng.Intn(left), left+rng.Intn(right)
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		b.AddUndirected(u, v, 1)
	}
	return b.Build()
}

// Fixtures returns the eight small graphs the correctness suites share,
// each derived from seed: Erdős–Rényi at two sizes, Barabási–Albert,
// R-MAT, caveman with hubs, the star-heavy graph, a single node, and
// three disconnected islands. Between them they cover hub-free and
// hub-heavy orderings, isolated blocks and one-node blocks.
func Fixtures(seed int64) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"er-small":   ErdosRenyi(60, 240, seed),
		"er-medium":  ErdosRenyi(400, 2400, seed+1),
		"ba":         BarabasiAlbert(300, 3, seed+2),
		"rmat":       RMAT(NewRMATPul(256, 1500, 0.7, seed+3)),
		"caveman":    CavemanHubs(CavemanHubsConfig{Communities: 12, Size: 20, PIntra: 0.3, Hubs: 6, HubDeg: 15, Seed: seed + 4}),
		"star":       StarMail(StarMailConfig{Core: 12, Periphery: 250, LeafDeg: 2, PCore: 0.4, Seed: seed + 5}),
		"singleton":  ErdosRenyi(1, 0, seed),
		"disconnect": islands(seed + 6),
	}
}

// islands is three islands of 40 nodes with 120 random edge draws each
// and no edge between them.
func islands(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(120)
	for isle := 0; isle < 3; isle++ {
		base := isle * 40
		for e := 0; e < 120; e++ {
			u, v := base+rng.Intn(40), base+rng.Intn(40)
			if u != v {
				b.AddEdge(u, v, 1)
			}
		}
	}
	return b.Build()
}
