package bench

import (
	"fmt"

	"bear/internal/core"
	"bear/internal/graph"
	"bear/internal/rwr"
)

// Method is the harness-facing preprocessing interface; internal/rwr's
// baselines satisfy it directly and BEAR is adapted below.
type Method interface {
	Name() string
	Preprocess(g *graph.Graph, opts rwr.Options) (rwr.Solver, error)
}

// BearMethod adapts BEAR (exact or approximate, depending on opts.DropTol)
// to the harness Method interface.
type BearMethod struct {
	// Label overrides the reported name ("bear-exact" / "bear-approx" by
	// default, chosen from the drop tolerance).
	Label string
}

// Name implements Method.
func (b BearMethod) Name() string {
	if b.Label != "" {
		return b.Label
	}
	return "bear"
}

// Preprocess runs BEAR preprocessing with the shared options and enforces
// the memory budget on the resulting matrices.
func (b BearMethod) Preprocess(g *graph.Graph, opts rwr.Options) (rwr.Solver, error) {
	p, err := core.Preprocess(g, core.Options{C: opts.C, DropTol: opts.DropTol})
	if err != nil {
		return nil, err
	}
	s := &bearSolver{p: p}
	if opts.MemBudget > 0 && s.Bytes() > opts.MemBudget {
		return nil, fmt.Errorf("%w: BEAR matrices use %d bytes", rwr.ErrOutOfMemory, s.Bytes())
	}
	return s, nil
}

type bearSolver struct {
	p *core.Precomputed
}

func (s *bearSolver) Query(q []float64) ([]float64, error) { return s.p.QueryDist(q) }
func (s *bearSolver) NNZ() int64                           { return s.p.NNZ() }
func (s *bearSolver) Bytes() int64                         { return s.p.Bytes() }

// Precomputed exposes the underlying BEAR state for experiments that need
// structural statistics (Table 4).
func (s *bearSolver) Precomputed() *core.Precomputed { return s.p }

// ExactMethods returns the exact competitors of Figures 1(a), 1(b) and 5 in
// the paper's plotting order.
func ExactMethods() []Method {
	return []Method{
		BearMethod{Label: "bear-exact"},
		rwr.LUDecomp{},
		rwr.QRDecomp{},
		rwr.Inversion{},
		rwr.Iterative{},
	}
}

// HasPreprocessing reports whether a method precomputes matrices; the
// iterative and RPPR/BRPPR methods do not, and the paper excludes them from
// space comparisons.
func HasPreprocessing(m Method) bool {
	switch m.Name() {
	case "iterative", "rppr", "brppr":
		return false
	}
	return true
}
