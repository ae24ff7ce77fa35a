package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"bear/internal/obsv"
)

// This file implements the accuracy guardrail for BEAR-Approx: residual
// verification against the retained exact operator H, and preconditioned
// iterative refinement. BEAR-Approx (Algorithm 1, line 9) drops entries of
// the precomputed factors below the tolerance ξ, trading accuracy for
// memory; the block-elimination solve with dropped factors is therefore an
// approximate inverse P ≈ H⁻¹. Richardson iterative refinement
//
//	x ← x + P (q − H x)
//
// uses that cheap approximate solve as a preconditioner and contracts the
// error by the factor ‖I − PH‖ per sweep, so a handful of sweeps recovers
// exact-level accuracy at BEAR-Approx memory cost. When ξ = 0 the factors
// are exact, P = H⁻¹, and the initial solve already has a residual at
// rounding level — refinement converges immediately.
//
// All of it requires the permuted system matrix H, which preprocessing
// retains only under Options.KeepH (the factors alone cannot reproduce H
// once entries have been dropped).

// ErrNoRetainedH is returned by Residual and the refined query paths when
// preprocessing did not retain H (Options.KeepH was false and the loaded
// precompute file carried no H section).
var ErrNoRetainedH = errors.New("core: H not retained; preprocess with Options.KeepH to enable residual verification and refinement")

// DefaultRefineMaxIter bounds the number of refinement sweeps when the
// caller passes maxIter <= 0. Each sweep contracts the error by roughly
// the drop-induced perturbation ratio, so well-conditioned systems converge
// in a handful of sweeps; 16 leaves generous headroom before the loop gives
// up on a stagnating (too-aggressive ξ) system.
const DefaultRefineMaxIter = 16

// RefineStats reports what a refined solve did.
type RefineStats struct {
	// Sweeps is the number of Richardson correction sweeps applied (0 when
	// the initial solve already met the tolerance, or refinement was off).
	Sweeps int
	// Residual is the last measured ∞-norm residual ‖q − H x‖∞ of the
	// unscaled system (scaled by c for query-level results; see
	// QueryRefinedCtx). NaN when refinement was disabled (tol <= 0): the
	// plain path never measures a residual.
	Residual float64
	// Converged reports whether the residual met the tolerance. Always true
	// when refinement was disabled (the plain path is, by definition, the
	// answer asked for).
	Converged bool
}

// infNorm returns ‖v‖∞, propagating NaN so a poisoned residual is reported
// rather than silently ranked below finite entries.
func infNorm(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if math.IsNaN(x) {
			return math.NaN()
		}
		if x < 0 {
			x = -x
		}
		if x > m {
			m = x
		}
	}
	return m
}

// Residual measures the ∞-norm defect ‖c·q − H·x‖∞ of a query result x
// (as returned by Query/QueryDist/QueryRefined, indexed by node id)
// against the starting vector q. For exact factors the defect is at
// rounding level; for BEAR-Approx it quantifies exactly the error the drop
// tolerance introduced. Requires Options.KeepH; returns ErrNoRetainedH
// otherwise.
func (p *Precomputed) Residual(x, q []float64) (float64, error) {
	if p.H == nil {
		return 0, ErrNoRetainedH
	}
	if len(x) != p.N || len(q) != p.N {
		return 0, fmt.Errorf("core: Residual lengths %d/%d, want %d", len(x), len(q), p.N)
	}
	ws := p.AcquireWorkspace()
	defer p.ReleaseWorkspace(ws)
	ws.ensureRefine(p.N)
	// The scores x = c·H⁻¹q solve H x = c·q, so the defect is measured
	// against the c-scaled right-hand side, both in internal order.
	for node, v := range q {
		ws.rq[p.Perm[node]] = p.C * v
	}
	for node, v := range x {
		ws.rz[p.Perm[node]] = v
	}
	p.residual(ws.rr, ws.rq, ws.rz)
	return infNorm(ws.rr), nil
}

// residual computes r = q − H·x in internal order: H·x into r, then
// r[i] = q[i] − r[i]. Each entry is q[i] − s for the row sum s every
// layout accumulates in the same order, so r is reproducible bit for bit.
// r must alias neither q nor x.
func (p *Precomputed) residual(r, q, x []float64) {
	p.kern.h.Mul(r, x, 1)
	for i, v := range q {
		r[i] = v - r[i]
	}
}

// solveRefinedCtx computes x = H⁻¹ b (the unscaled block-elimination solve
// both query layers build on) with iterative refinement: after the initial
// solve, Richardson sweeps x ← x + P(b − Hx) run until
// ‖b − Hx‖∞ ≤ tol·‖b‖∞ or maxIter sweeps have been applied (maxIter <= 0
// selects DefaultRefineMaxIter). tol <= 0 disables refinement entirely:
// the result is bit-identical to the plain solve, no residual is measured,
// and the call stays allocation-free with a caller-held workspace.
//
// Cancellation is honored between sweeps (and inside each solve); on abort
// the stats cover the sweeps already applied and dst holds the best
// iterate so far. Residual and sweep timings are recorded into the
// obsv.Trace carried by ctx, if any. Requires Options.KeepH when tol > 0.
// dst must not alias b.
func (p *Precomputed) solveRefinedCtx(ctx context.Context, dst, b []float64, tol float64, maxIter int, ws *Workspace) (RefineStats, error) {
	if tol <= 0 {
		if err := p.solveToCtx(ctx, dst, b, 1, ws); err != nil {
			return RefineStats{}, err
		}
		return RefineStats{Converged: true, Residual: math.NaN()}, nil
	}
	if p.H == nil {
		return RefineStats{}, ErrNoRetainedH
	}
	if maxIter <= 0 {
		maxIter = DefaultRefineMaxIter
	}
	ws.ensureRefine(p.N)
	tr := obsv.FromContext(ctx)

	// Permuted right-hand side, fixed for the whole loop. The relative
	// tolerance is anchored to ‖b‖∞ (1 for a unit seed vector); a zero b
	// falls back to an absolute tolerance so the loop still terminates.
	qp := ws.rq
	for node, v := range b {
		qp[p.Perm[node]] = v
	}
	qnorm := infNorm(qp)
	if qnorm == 0 {
		qnorm = 1
	}

	var stats RefineStats
	if err := p.solveToCtx(ctx, dst, b, 1, ws); err != nil {
		return stats, err
	}
	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		// Measure: r = b − H x, in internal order.
		sw := tr.Start(obsv.SpanResidual)
		zp := ws.rz
		for node, v := range dst {
			zp[p.Perm[node]] = v
		}
		p.residual(ws.rr, qp, zp)
		res := infNorm(ws.rr)
		sw.Stop()
		stats.Residual = res
		if res <= tol*qnorm {
			stats.Converged = true
			return stats, nil
		}
		if stats.Sweeps >= maxIter {
			return stats, nil
		}
		// Correct: x ← x + P r. The residual is gathered back to node
		// order into zp (its permuted-iterate contents are recomputed next
		// pass), solved in place — solveToCtx loads its right-hand side
		// into ws.full before writing dst, so the aliasing is safe — and
		// accumulated into the iterate.
		sw = tr.Start(obsv.SpanRefineSweep)
		for node := range zp {
			zp[node] = ws.rr[p.Perm[node]]
		}
		if err := p.solveToCtx(ctx, zp, zp, 1, ws); err != nil {
			sw.Stop()
			return stats, err
		}
		for i := range dst {
			dst[i] += zp[i]
		}
		stats.Sweeps++
		sw.Stop()
	}
}

// QueryRefinedCtx computes personalized PageRank for the starting vector q
// like QueryDistToCtx, then verifies and iteratively refines the result
// against the retained exact H until the relative ∞-norm residual falls
// below tol (see solveRefinedCtx). dst receives the c-scaled scores; the
// returned stats carry the c-scaled residual, directly comparable to
// Residual(dst, q). With tol <= 0 the call is bit-identical to
// QueryDistToCtx and allocation-free with a caller-held workspace. A nil
// ws borrows a pooled workspace. dst must not alias q.
func (p *Precomputed) QueryRefinedCtx(ctx context.Context, dst, q []float64, tol float64, maxIter int, ws *Workspace) (RefineStats, error) {
	if len(q) != p.N {
		return RefineStats{}, fmt.Errorf("core: starting vector length %d, want %d", len(q), p.N)
	}
	if len(dst) != p.N {
		return RefineStats{}, fmt.Errorf("core: destination length %d, want %d", len(dst), p.N)
	}
	for i, v := range q {
		if v < 0 || math.IsNaN(v) {
			return RefineStats{}, fmt.Errorf("core: starting vector entry %d is %g; must be non-negative", i, v)
		}
	}
	if ws == nil {
		ws = p.AcquireWorkspace()
		defer p.ReleaseWorkspace(ws)
	}
	stats, err := p.solveRefinedCtx(ctx, dst, q, tol, maxIter, ws)
	if err != nil {
		return stats, err
	}
	for i := range dst {
		dst[i] *= p.C
	}
	// The unscaled system solved H z = q; the returned scores are x = c·z,
	// so the score-level defect c·q − H·x is c times the measured one.
	stats.Residual *= p.C
	return stats, nil
}

// QueryRefined is QueryRefinedCtx for a freshly allocated result and a
// background context.
func (p *Precomputed) QueryRefined(q []float64, tol float64, maxIter int) ([]float64, RefineStats, error) {
	dst := make([]float64, p.N)
	stats, err := p.QueryRefinedCtx(context.Background(), dst, q, tol, maxIter, nil)
	if err != nil {
		return nil, stats, err
	}
	return dst, stats, nil
}
