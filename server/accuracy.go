package server

import (
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// GET /v1/graphs/{name}/accuracy — the sampled accuracy self-check for
// BEAR-Approx deployments: k random seeds are queried through the plain
// (possibly drop-tolerance-degraded) solver, their residuals are measured
// against the retained exact H, and each is compared to a refined solve.
// The report quantifies, on live data, exactly how much accuracy the
// configured drop tolerance is costing and that refinement recovers it.

// AccuracySample is one seed's measurement in an accuracy report.
type AccuracySample struct {
	Seed int `json:"seed"`
	// Residual is the score-level defect ‖c·q − H·x‖∞ of the plain query
	// result; rounding-level for BEAR-Exact, the drop-induced error for
	// BEAR-Approx.
	Residual float64 `json:"residual"`
	// Cosine is the cosine similarity between the plain and the refined
	// score vectors; 1 means the drop tolerance cost nothing for this seed.
	Cosine float64 `json:"cosine_vs_refined"`
	// Sweeps is how many refinement sweeps the refined solve needed.
	Sweeps int `json:"refine_sweeps"`
	// RefinedResidual is the refined solve's final score-level residual.
	RefinedResidual float64 `json:"refined_residual"`
}

// AccuracyReport is the JSON document served by the accuracy endpoint.
type AccuracyReport struct {
	Graph       string           `json:"graph"`
	DropTol     float64          `json:"drop_tolerance"`
	Tol         float64          `json:"refine_tolerance"`
	Samples     []AccuracySample `json:"samples"`
	MaxResidual float64          `json:"max_residual"`
	MinCosine   float64          `json:"min_cosine"`
}

func (s *Server) handleAccuracy(w http.ResponseWriter, r *http.Request, name string, e *entry) {
	if e.dyn.PendingNodes() > 0 {
		writeError(w, errBadRequest("accuracy check requires a rebuild after updates"))
		return
	}
	p := e.dyn.Precomputed()
	if p.H == nil {
		writeError(w, errBadRequest("graph was preprocessed without the retained exact operator; re-register it to enable accuracy checks"))
		return
	}
	k := 8
	if v := r.URL.Query().Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, errBadRequest("k %q must be a positive integer", v))
			return
		}
		if n > 64 {
			n = 64 // bound the work one probe can demand
		}
		k = n
	}
	tol := 1e-9
	if v := r.URL.Query().Get("tol"); v != "" {
		t, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(t) || math.IsInf(t, 0) || t <= 0 {
			writeError(w, errBadRequest("tol %q must be a finite positive tolerance", v))
			return
		}
		tol = t
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()

	// Fresh seeds each probe: the point is to sample new parts of the graph
	// over time, not to produce a cacheable answer.
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	report := AccuracyReport{
		Graph:   name,
		DropTol: e.opts.DropTol,
		Tol:     tol,
		Samples: make([]AccuracySample, 0, k),
	}
	report.MinCosine = math.Inf(1)
	q := make([]float64, p.N)
	plain := make([]float64, p.N)
	for i := 0; i < k; i++ {
		seed := rng.Intn(p.N)
		q[seed] = 1
		ws := p.AcquireWorkspace()
		err := p.QueryToCtx(ctx, plain, seed, ws)
		p.ReleaseWorkspace(ws)
		if err != nil {
			writeError(w, queryError(err))
			return
		}
		resid, err := p.Residual(plain, q)
		if err != nil {
			writeError(w, queryError(err))
			return
		}
		refined, stats, err := s.refineOne(ctx, e, q, tol)
		if err != nil {
			writeError(w, queryError(err))
			return
		}
		report.Samples = append(report.Samples, AccuracySample{
			Seed:            seed,
			Residual:        resid,
			Cosine:          cosineSim(plain, refined),
			Sweeps:          stats.Sweeps,
			RefinedResidual: stats.Residual,
		})
		if resid > report.MaxResidual {
			report.MaxResidual = resid
		}
		q[seed] = 0
	}
	for _, sm := range report.Samples {
		if sm.Cosine < report.MinCosine {
			report.MinCosine = sm.Cosine
		}
	}
	writeJSON(w, http.StatusOK, report)
}

// cosineSim is the cosine similarity of two score vectors; 0 when either
// is all-zero.
func cosineSim(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}
