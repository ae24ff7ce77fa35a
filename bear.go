// Package bear is a pure-Go implementation of BEAR, the Block Elimination
// Approach for Random walk with restart on large graphs (Shin, Sael, Jung,
// Kang; SIGMOD 2015).
//
// Random walk with restart (RWR) scores every node's relevance to a seed
// node and underlies ranking, community detection, link prediction, and
// anomaly detection. BEAR splits the work into a one-time preprocessing
// phase — reorder the system matrix H = I − (1−c)Ãᵀ with a hub-and-spoke
// ordering engine (SlashBurn by default; see Options.Ordering) so its
// spoke-spoke block is block diagonal, factor that block and the Schur
// complement of it — and a per-seed query phase that answers in a handful
// of sparse matrix-vector products.
//
// Basic use:
//
//	g, err := bear.LoadEdgeList(file)
//	p, err := bear.Preprocess(g, bear.Options{})   // BEAR-Exact
//	scores, err := p.Query(seed)                   // RWR vector for seed
//
// Set Options.DropTol to a positive ξ for BEAR-Approx, which trades a
// little accuracy for substantially smaller precomputed matrices and
// faster queries. Precomputed matrices can be persisted with Save and
// reloaded with LoadPrecomputed, so the preprocessing cost is paid once.
//
// The package also exposes the RWR variants of Section 3.4 of the paper:
// personalized PageRank via QueryDist, effective importance via
// QueryEffectiveImportance, and RWR on the normalized graph Laplacian via
// Options.Laplacian.
package bear

import (
	"io"

	"bear/internal/core"
	"bear/internal/graph"
	"bear/internal/ordering"
	"bear/internal/rwr"
)

// DefaultOrdering is the reordering engine selected when Options.Ordering
// is empty: the paper's SlashBurn.
const DefaultOrdering = ordering.Default

// Orderings lists the reordering engines, sorted — valid values
// for Options.Ordering, the bearserve -ordering flag, and ?ordering=.
func Orderings() []string { return ordering.Names() }

// NormalizeOrdering maps the empty ordering name to DefaultOrdering and
// leaves every other name unchanged; it does not check that the engine
// exists.
func NormalizeOrdering(name string) string { return ordering.Normalize(name) }

// Graph is a directed weighted graph over nodes 0..N-1. Construct one with
// NewGraphBuilder, LoadEdgeList, or the Generate* helpers.
type Graph = graph.Graph

// GraphBuilder accumulates edges for a Graph.
type GraphBuilder = graph.Builder

// Options configures BEAR preprocessing. The zero value selects the
// paper's defaults: restart probability c = 0.05, SlashBurn wave size
// k = 0.001·n, no entry dropping (BEAR-Exact).
type Options = core.Options

// Precomputed holds BEAR's preprocessed matrices and answers queries. It
// is safe for concurrent use by multiple goroutines.
//
// Each query shape has one method that takes a context and writes into
// caller-owned memory — QueryToCtx, QueryDistToCtx, QueryBatchToCtx,
// QueryRefinedCtx — and combined with a reused Workspace runs
// allocation-free, which is what the serving hot path uses. Query,
// QueryDist, QueryBatch and QueryRefined are the allocating convenience
// forms. Single-seed queries additionally take a block-restricted path
// (bit-identical to the unrestricted one) that confines the forward half
// of Algorithm 2 to the seed's diagonal block. A seed whose block has no
// edge into the hubs is answered by that forward half alone, again
// bit-identically.
type Precomputed = core.Precomputed

// Workspace holds the scratch vectors one BEAR solve needs. Acquire one
// per goroutine from Precomputed.AcquireWorkspace, pass it to QueryToCtx /
// QueryDistToCtx for zero-allocation queries, and return it with
// ReleaseWorkspace.
type Workspace = core.Workspace

// Stats reports structural and timing measurements from preprocessing.
type Stats = core.Stats

// RefineStats reports what a refined query did: sweeps applied, final
// residual, and whether the tolerance was met. See
// Precomputed.QueryRefined.
type RefineStats = core.RefineStats

// DefaultRefineMaxIter bounds refinement sweeps when the caller passes
// maxIter <= 0.
const DefaultRefineMaxIter = core.DefaultRefineMaxIter

// ErrNoRetainedH is returned by Precomputed.Residual and the refined query
// paths when preprocessing did not retain the exact system matrix H (set
// Options.KeepH to retain it).
var ErrNoRetainedH = core.ErrNoRetainedH

// NewGraphBuilder returns a builder for a graph with n nodes.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// LoadEdgeList parses a whitespace-separated "u v [weight]" edge list with
// '#' comments, the format used by SNAP datasets.
func LoadEdgeList(r io.Reader) (*Graph, error) { return graph.LoadEdgeList(r) }

// LoadMatrixMarket parses a MatrixMarket coordinate file, the format
// SuiteSparse and many graph repositories distribute datasets in.
func LoadMatrixMarket(r io.Reader) (*Graph, error) { return graph.LoadMatrixMarket(r) }

// Preprocess runs the BEAR preprocessing phase (Algorithm 1 of the paper)
// on g. With Options.DropTol == 0 the result is BEAR-Exact, whose queries
// are exact up to floating-point rounding (Theorem 1); with DropTol > 0 it
// is BEAR-Approx.
func Preprocess(g *Graph, opts Options) (*Precomputed, error) {
	return core.Preprocess(g, opts)
}

// LoadPrecomputed reads matrices previously written with
// (*Precomputed).Save, so preprocessing can be reused across processes.
func LoadPrecomputed(r io.Reader) (*Precomputed, error) { return core.Load(r) }

// TopK returns the k node ids with the highest scores in descending order
// (ties broken by ascending id), a convenience for ranking applications.
// It runs in O(n log k) with a bounded min-heap.
func TopK(scores []float64, k int) []int { return core.TopK(scores, k) }

// TopKExcluding is TopK restricted to nodes for which skip returns false;
// a nil skip is TopK. Ranking semantics are identical.
func TopKExcluding(scores []float64, k int, skip func(int) bool) []int {
	return core.TopKExcluding(scores, k, skip)
}

// TopKCandidates ranks link-prediction candidates for seed: the top-k
// scored nodes excluding the seed itself and every node it already points
// at. Pair it with Dynamic.Query or QueryBatch scores.
func TopKCandidates(g *Graph, scores []float64, seed, k int) []int {
	return core.TopKCandidates(g, scores, seed, k)
}

// TopKResult is the answer to Dynamic.QueryTopK / QueryTopKCtx and, for a
// weighted starting distribution, Dynamic.QueryDistTopKCtx: its nodes,
// order and scores are bit-identical to TopK over the full exact solve,
// whether the block-pruned solve or the full solve produced them.
// Dynamic.QueryCandidatesCtx returns one too, ranked as TopKCandidates
// ranks the full solve.
type TopKResult = core.TopKResult

// TopKStats reports how a top-k query was answered: the fallback reason
// when the full solve ran, and the spoke blocks the block-pruned solve
// back-substituted or skipped.
type TopKStats = core.TopKStats

// SolveIterative computes the RWR vector with the classic power iteration
// (Equation 3 of the paper) — useful as an independent cross-check of BEAR
// results and as the no-preprocessing baseline. q is the starting
// distribution; eps is the L1 convergence threshold (the paper uses 1e-8).
func SolveIterative(g *Graph, c float64, q []float64, eps float64) ([]float64, error) {
	s, err := rwr.Iterative{}.Preprocess(g, rwr.Options{C: c, Eps: eps})
	if err != nil {
		return nil, err
	}
	return s.Query(q)
}
