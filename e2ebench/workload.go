package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	"bear"
)

// Every read asks for the top readTop nodes (query top, topk k, candidates
// k), plus one for every time its seed supply has wrapped around: the
// cache keys include the count, so a cold request never repeats one.
const readTop = 10

// updatesPerRebuild is how many edge reweights the churn writer sends before
// each synchronous auto-mode rebuild. It stays below bearserve's 64-pending
// background trigger, so every rebuild in a run is one the writer asked for.
const updatesPerRebuild = 32

// writerPace spaces the churn writer's updates: a feed of edge changes
// arriving at 10/s rather than as fast as the cluster accepts them. Back to
// back, the writer would keep both shards rebuilding (on both cores) all
// the time, and read latency would flip run to run between the rebuild and
// the idle regime; paced, a round is ≈3.2 s of updates read through the
// Woodbury overlay plus one rebuild, whose contention lands in the tail.
const writerPace = 100 * time.Millisecond

type opKind uint8

const (
	kQuery opKind = iota
	kTopK
	kPPR
	kBatch
	kCandidates
	kUpdate
	kRebuild
	numKinds
)

var kindName = [numKinds]string{"query", "topk", "ppr", "batch", "candidates", "edges", "rebuild"}

func (k opKind) String() string { return kindName[k] }

func (k opKind) isRead() bool { return k <= kCandidates }

// readMix is the request mix of every read stream.
var readMix = [...]struct {
	kind opKind
	p    float64
}{{kQuery, 0.50}, {kTopK, 0.25}, {kPPR, 0.10}, {kBatch, 0.10}, {kCandidates, 0.05}}

// seedsPer is how many seeds one read of each kind carries.
var seedsPer = [numKinds]int{kQuery: 1, kTopK: 1, kPPR: 3, kBatch: 16, kCandidates: 8}

// hotPool is how many distinct requests of each kind the hot-read pool
// holds: 24 + 8 + 4·16 = 96 cached score vectors (≈6 MB at n=8,000), well
// inside one shard's 64 MiB result cache even split over its 16 LRU shards.
var hotPool = [numKinds]int{kQuery: 24, kTopK: 16, kPPR: 8, kBatch: 4, kCandidates: 4}

// op is one client request.
type op struct {
	kind    opKind
	top     int // results asked for (top or k)
	seeds   []int
	weights []float64 // ppr seed weights, parallel to seeds
	u, v    int       // update: reweight edge u->v to w
	w       float64
}

func drawKind(rng *rand.Rand) opKind {
	r := rng.Float64()
	for _, m := range readMix {
		if r < m.p {
			return m.kind
		}
		r -= m.p
	}
	return kCandidates
}

// seedSupply hands out nodes without replacement from a seeded permutation
// of its node set, reshuffling once fewer nodes are left than a request
// takes; pass counts the reshuffles. All seeds of one request come from
// one pass, so a request's pass-dependent top never meets a seed twice.
type seedSupply struct {
	rng   *rand.Rand
	nodes []int
	next  int
	pass  int
}

func (s *seedSupply) take(k int) []int {
	if s.next+k > len(s.nodes) {
		s.rng.Shuffle(len(s.nodes), func(a, b int) { s.nodes[a], s.nodes[b] = s.nodes[b], s.nodes[a] })
		s.next = 0
		s.pass++
	}
	out := append([]int(nil), s.nodes[s.next:s.next+k]...)
	s.next += k
	return out
}

func newRead(kind opKind, seeds []int, top int, rng *rand.Rand) op {
	o := op{kind: kind, top: top, seeds: seeds}
	if kind == kPPR {
		o.weights = make([]float64, len(seeds))
		for i := range o.weights {
			o.weights[i] = 0.25 + rng.Float64()
		}
	}
	return o
}

// stream is one connection's op sequence; it never runs dry.
type stream interface{ next() op }

// coldStream draws every seed without replacement, so no request repeats.
type coldStream struct {
	rng    *rand.Rand
	supply *seedSupply
}

func (s *coldStream) next() op {
	kind := drawKind(s.rng)
	seeds := s.supply.take(seedsPer[kind])
	return newRead(kind, seeds, readTop+s.supply.pass, s.rng)
}

// hotStream draws each request Zipf(1.1) from a fixed pool of distinct
// requests, kind first by the read mix, then by rank within the kind.
type hotStream struct {
	rng  *rand.Rand
	pool *[numKinds][]op
	zipf [numKinds]*rand.Zipf
}

func (s *hotStream) next() op {
	kind := drawKind(s.rng)
	return s.pool[kind][s.zipf[kind].Uint64()]
}

// writerStream is the churn writer's update sequence: reweights of existing
// out-edges whose sources come from the low-degree tail, so the dirty nodes
// sit in spoke blocks and auto rebuilds can take the incremental path.
type writerStream struct {
	rng  *rand.Rand
	g    *bear.Graph
	tail []int
}

func (s *writerStream) next() op {
	u := s.tail[s.rng.Intn(len(s.tail))]
	dst, _ := s.g.Out(u)
	return op{kind: kUpdate, u: u, v: dst[s.rng.Intn(len(dst))], w: 0.5 + 1.5*s.rng.Float64()}
}

// tailNodes returns the nodes with out-degree 1..2 and in-degree ≤ 4.
func tailNodes(g *bear.Graph) []int {
	in := g.InDegrees()
	var out []int
	for u := 0; u < g.N(); u++ {
		if d := g.OutDegree(u); d >= 1 && d <= 2 && in[u] <= 4 {
			out = append(out, u)
		}
	}
	return out
}

// workload is one run's generated inputs: a read stream per reader
// connection, the churn writer's stream, the warm-up ops, and a side
// stream for the churn end-state check and the direct-call replay.
type workload struct {
	name    string
	readers []stream
	writer  *writerStream // churn only
	warmup  []op
	side    stream
}

var workloadNames = []string{"hot-read", "cold-read", "churn"}

func rngFor(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

// warmupReads is the number of cold reads issued before a timed phase: more
// than the 20 samples the front's adaptive hedge deadline needs, and enough
// misses (≈2 score vectors each) to fill the primary shard's result cache.
const warmupReads = 200

func newWorkload(name string, g *bear.Graph, seed int64) (*workload, error) {
	n := g.N()
	perm := rngFor(seed, 1).Perm(n)
	// The first nodes of the permutation seed the warm-up and the side
	// stream; the rest are split between the reader connections.
	reserve := min(n/4, 4096)
	supply := func(nodes []int, salt int64) *seedSupply {
		return &seedSupply{rng: rngFor(seed, salt), nodes: append([]int(nil), nodes...)}
	}
	w := &workload{name: name, side: &coldStream{rng: rngFor(seed, 3), supply: supply(perm[:reserve], 4)}}
	warm := &coldStream{rng: rngFor(seed, 5), supply: supply(perm[:reserve], 2)}
	rest := perm[reserve:]
	switch name {
	case "hot-read":
		pool := new([numKinds][]op)
		poolSupply := supply(rest, 6)
		prng := rngFor(seed, 7)
		for k := kQuery; k <= kCandidates; k++ {
			for i := 0; i < hotPool[k]; i++ {
				o := newRead(k, poolSupply.take(seedsPer[k]), readTop, prng)
				pool[k] = append(pool[k], o)
				w.warmup = append(w.warmup, o)
			}
		}
		for c := int64(0); c < 2; c++ {
			rng := rngFor(seed, 10+c)
			hs := &hotStream{rng: rng, pool: pool}
			for k := kQuery; k <= kCandidates; k++ {
				hs.zipf[k] = rand.NewZipf(rng, 1.1, 1, uint64(hotPool[k]-1))
			}
			w.readers = append(w.readers, hs)
		}
	case "cold-read":
		half := len(rest) / 2
		for c, part := range [][]int{rest[:half], rest[half:]} {
			w.readers = append(w.readers, &coldStream{rng: rngFor(seed, 10+int64(c)), supply: supply(part, 20+int64(c))})
		}
		for i := 0; i < warmupReads; i++ {
			w.warmup = append(w.warmup, warm.next())
		}
	case "churn":
		tail := tailNodes(g)
		if len(tail) == 0 {
			return nil, fmt.Errorf("graph has no low-degree tail nodes to update")
		}
		w.writer = &writerStream{rng: rngFor(seed, 30), g: g, tail: tail}
		w.readers = []stream{&coldStream{rng: rngFor(seed, 10), supply: supply(rest, 20)}}
		for i := 0; i < warmupReads/2; i++ {
			w.warmup = append(w.warmup, warm.next())
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// digestPrefix is how many ops of each stream the op digest covers.
const digestPrefix = 2048

// opDigest hashes the inputs a run replays: the warm-up ops and a
// fixed-length prefix of every stream, drawn from a fresh copy of the
// workload so the run's own streams are untouched.
func opDigest(name string, g *bear.Graph, seed int64) (string, error) {
	w, err := newWorkload(name, g, seed)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	var b [8]byte
	write := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put := func(o op) {
		write(uint64(o.kind))
		write(uint64(o.top))
		for i, s := range o.seeds {
			write(uint64(s))
			if o.weights != nil {
				write(math.Float64bits(o.weights[i]))
			}
		}
		write(uint64(o.u))
		write(uint64(o.v))
		write(math.Float64bits(o.w))
	}
	for _, o := range w.warmup {
		put(o)
	}
	streams := append([]stream(nil), w.readers...)
	if w.writer != nil {
		streams = append(streams, w.writer)
	}
	for _, s := range streams {
		for i := 0; i < digestPrefix; i++ {
			put(s.next())
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
