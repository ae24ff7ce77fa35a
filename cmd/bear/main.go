// Command bear preprocesses graphs and answers RWR queries from the
// command line.
//
// Usage:
//
//	bear preprocess -graph g.txt -out g.bear [-c 0.05] [-drop 0] [-k 0] [-laplacian]
//	bear query      -index g.bear -seed 7 [-top 10] [-ei]
//	bear ppr        -index g.bear -seeds 3,17,42 [-top 10]
//	bear candidates -graph g.txt [-k 10] [-seeds 3,17] [-out cand.tsv] [-c 0.05]
//	bear stats      -index g.bear
//	bear verify     -index g.bear -graph g.txt [-seeds 5] [-tol 1e-8]
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"bear"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "preprocess":
		err = cmdPreprocess(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "ppr":
		err = cmdPPR(os.Args[2:])
	case "candidates":
		err = cmdCandidates(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bear: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bear {preprocess|query|ppr|candidates|stats|verify} [flags]")
	os.Exit(2)
}

func cmdPreprocess(args []string) error {
	fs := flag.NewFlagSet("preprocess", flag.ExitOnError)
	graphPath := fs.String("graph", "", "edge-list input file (required)")
	out := fs.String("out", "", "output index file (required)")
	c := fs.Float64("c", 0, "restart probability (default 0.05)")
	drop := fs.Float64("drop", 0, "drop tolerance ξ (0 = BEAR-Exact)")
	k := fs.Int("k", 0, "ordering hub budget — the SlashBurn wave size (default 0.001·n)")
	lap := fs.Bool("laplacian", false, "use normalized graph Laplacian variant")
	ord := fs.String("ordering", "", "reordering engine: slashburn|mindeg (default slashburn)")
	fs.Parse(args)
	if *graphPath == "" || *out == "" {
		return fmt.Errorf("preprocess: -graph and -out are required")
	}
	f, err := os.Open(*graphPath)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := loadGraph(f)
	if err != nil {
		return err
	}
	p, err := bear.Preprocess(g, bear.Options{C: *c, DropTol: *drop, K: *k, Laplacian: *lap, Ordering: *ord})
	if err != nil {
		return err
	}
	of, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer of.Close()
	if err := p.Save(of); err != nil {
		return err
	}
	st := p.Stats
	fmt.Printf("preprocessed n=%d m=%d n1=%d n2=%d blocks=%d in %v\n",
		st.N, st.M, st.N1, st.N2, st.NumBlocks, st.TimeTotal)
	fmt.Printf("precomputed nnz=%d bytes=%d\n", p.NNZ(), p.Bytes())
	return nil
}

// loadGraph sniffs the input format: MatrixMarket files start with a
// "%%MatrixMarket" banner, everything else parses as a plain edge list.
func loadGraph(r io.Reader) (*bear.Graph, error) {
	br := bufio.NewReader(r)
	head, _ := br.Peek(len("%%MatrixMarket"))
	if strings.EqualFold(string(head), "%%MatrixMarket") {
		return bear.LoadMatrixMarket(br)
	}
	return bear.LoadEdgeList(br)
}

func loadIndex(path string) (*bear.Precomputed, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return bear.LoadPrecomputed(f)
}

func printTop(scores []float64, k int) {
	for _, node := range bear.TopK(scores, k) {
		fmt.Printf("%d\t%.8g\n", node, scores[node])
	}
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	index := fs.String("index", "", "index file from 'bear preprocess' (required)")
	seed := fs.Int("seed", -1, "seed node (required)")
	top := fs.Int("top", 10, "number of results to print (0 = all)")
	ei := fs.Bool("ei", false, "report effective importance instead of raw RWR")
	fs.Parse(args)
	if *index == "" || *seed < 0 {
		return fmt.Errorf("query: -index and -seed are required")
	}
	p, err := loadIndex(*index)
	if err != nil {
		return err
	}
	var scores []float64
	if *ei {
		scores, err = p.QueryEffectiveImportance(*seed)
	} else {
		scores, err = p.Query(*seed)
	}
	if err != nil {
		return err
	}
	k := *top
	if k <= 0 {
		k = len(scores)
	}
	printTop(scores, k)
	return nil
}

func cmdPPR(args []string) error {
	fs := flag.NewFlagSet("ppr", flag.ExitOnError)
	index := fs.String("index", "", "index file (required)")
	seedsArg := fs.String("seeds", "", "comma-separated seed nodes (required)")
	top := fs.Int("top", 10, "number of results to print (0 = all)")
	fs.Parse(args)
	if *index == "" || *seedsArg == "" {
		return fmt.Errorf("ppr: -index and -seeds are required")
	}
	p, err := loadIndex(*index)
	if err != nil {
		return err
	}
	q := make([]float64, p.N)
	parts := strings.Split(*seedsArg, ",")
	for _, s := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("ppr: bad seed %q: %v", s, err)
		}
		if v < 0 || v >= p.N {
			return fmt.Errorf("ppr: seed %d out of range [0,%d)", v, p.N)
		}
		q[v] = 1 / float64(len(parts))
	}
	scores, err := p.QueryDist(q)
	if err != nil {
		return err
	}
	k := *top
	if k <= 0 {
		k = len(scores)
	}
	printTop(scores, k)
	return nil
}

// cmdCandidates is the offline link-prediction precompute: for every seed
// (default: every node) it ranks the k highest-scoring nodes that are not
// the seed and not among its existing out-neighbors, writing one
// "seed<TAB>candidate<TAB>score" line per candidate. Each seed runs
// Dynamic.QueryCandidatesCtx, the ranked solve bearserve's /candidates
// answers a miss with, so offline and online candidates agree by
// construction and no n-length score vector is held per seed. Seeds are
// ranked a chunk at a time over GOMAXPROCS goroutines and written in seed
// order.
func cmdCandidates(args []string) error {
	fs := flag.NewFlagSet("candidates", flag.ExitOnError)
	graphPath := fs.String("graph", "", "graph file (required)")
	k := fs.Int("k", 10, "candidates per seed")
	seedsArg := fs.String("seeds", "", "comma-separated seed nodes (default: all nodes)")
	out := fs.String("out", "", "output TSV file (default stdout)")
	c := fs.Float64("c", 0, "restart probability (default 0.05)")
	fs.Parse(args)
	if *graphPath == "" {
		return fmt.Errorf("candidates: -graph is required")
	}
	if *k <= 0 {
		return fmt.Errorf("candidates: -k must be positive")
	}
	f, err := os.Open(*graphPath)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := loadGraph(f)
	if err != nil {
		return err
	}
	d, err := bear.NewDynamic(g, bear.Options{C: *c})
	if err != nil {
		return err
	}
	var seeds []int
	if *seedsArg == "" {
		seeds = make([]int, g.N())
		for i := range seeds {
			seeds[i] = i
		}
	} else {
		for _, s := range strings.Split(*seedsArg, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("candidates: bad seed %q: %v", s, err)
			}
			if v < 0 || v >= g.N() {
				return fmt.Errorf("candidates: seed %d out of range [0,%d)", v, g.N())
			}
			seeds = append(seeds, v)
		}
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer of.Close()
		w = of
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# seed\tcandidate\tscore")
	// A chunk bounds the answers held before they are written in order.
	const chunk = 256
	ranked := make([]*bear.TopKResult, chunk)
	written := 0
	for lo := 0; lo < len(seeds); lo += chunk {
		part := seeds[lo:min(lo+chunk, len(seeds))]
		if err := rankCandidates(d, part, *k, ranked); err != nil {
			return err
		}
		for j, seed := range part {
			res := ranked[j]
			for i, node := range res.Nodes {
				fmt.Fprintf(bw, "%d\t%d\t%.8g\n", seed, node, res.Scores[i])
			}
			written += len(res.Nodes)
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bear: wrote %d candidates for %d seeds\n", written, len(seeds))
	return nil
}

// rankCandidates sets ranked[j] to the k candidates of seeds[j], spreading
// the seeds over GOMAXPROCS goroutines; each ranked query takes its own
// pooled workspace.
func rankCandidates(d *bear.Dynamic, seeds []int, k int, ranked []*bear.TopKResult) error {
	var next atomic.Int64
	errs := make([]error, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < len(seeds); j = int(next.Add(1) - 1) {
				res, err := d.QueryCandidatesCtx(context.Background(), seeds[j], k)
				if err != nil {
					errs[w] = err
					return
				}
				ranked[j] = res
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	index := fs.String("index", "", "index file (required)")
	fs.Parse(args)
	if *index == "" {
		return fmt.Errorf("stats: -index is required")
	}
	p, err := loadIndex(*index)
	if err != nil {
		return err
	}
	fmt.Printf("n=%d n1=%d n2=%d c=%g blocks=%d\n", p.N, p.N1, p.N2, p.C, len(p.Blocks))
	fmt.Printf("nnz: L1inv=%d U1inv=%d H12=%d H21=%d L2inv=%d U2inv=%d total=%d\n",
		p.L1Inv.NNZ(), p.U1Inv.NNZ(), p.H12.NNZ(), p.H21.NNZ(), p.L2Inv.NNZ(), p.U2Inv.NNZ(), p.NNZ())
	fmt.Printf("bytes=%d\n", p.Bytes())
	return nil
}

// cmdVerify cross-checks a preprocessed index against its source graph:
// random seeds are queried through the index and through the independent
// iterative solver, and the maximum absolute difference is compared to a
// tolerance. It catches index/graph mismatches, corrupt files that still
// decode, and approximate indexes applied where exact answers are assumed.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	index := fs.String("index", "", "index file (required)")
	graphPath := fs.String("graph", "", "source graph file (required)")
	seeds := fs.Int("seeds", 5, "number of random seeds to check")
	tol := fs.Float64("tol", 1e-8, "maximum allowed |index - iterative| per node")
	fs.Parse(args)
	if *index == "" || *graphPath == "" {
		return fmt.Errorf("verify: -index and -graph are required")
	}
	p, err := loadIndex(*index)
	if err != nil {
		return err
	}
	f, err := os.Open(*graphPath)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := loadGraph(f)
	if err != nil {
		return err
	}
	if g.N() != p.N {
		return fmt.Errorf("verify: graph has %d nodes, index has %d", g.N(), p.N)
	}
	rng := rand.New(rand.NewSource(1))
	var worst float64
	for i := 0; i < *seeds; i++ {
		seed := rng.Intn(p.N)
		got, err := p.Query(seed)
		if err != nil {
			return fmt.Errorf("verify: query seed %d: %v", seed, err)
		}
		q := make([]float64, p.N)
		q[seed] = 1
		want, err := bear.SolveIterative(g, p.C, q, (*tol)/100)
		if err != nil {
			return fmt.Errorf("verify: iterative solve: %v", err)
		}
		for u := range want {
			if d := math.Abs(got[u] - want[u]); d > worst {
				worst = d
			}
		}
	}
	fmt.Printf("verified %d seeds: max |index - iterative| = %.3g (tolerance %.3g)\n",
		*seeds, worst, *tol)
	if worst > *tol {
		return fmt.Errorf("verify: divergence %.3g exceeds tolerance %.3g (approximate index, wrong graph, or corruption)", worst, *tol)
	}
	return nil
}
