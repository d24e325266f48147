// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII) on the simulated substrate. Each experiment is a pure
// function returning typed rows, so the same code backs the rtsebench CLI,
// the testing.B benchmarks, and EXPERIMENTS.md.
//
// The environment mirrors §VII-A:
//
//   - Semi-synthesized dataset: the 607-road network, R^w = R (workers
//     everywhere), queried roads drawn uniformly (|R^q| ∈ {33, 51}), costs
//     uniform in C1 = [1,5] or C2 = [1,10], budgets K = 30..150,
//     θ ∈ {0.92, 1}.
//   - gMission dataset: 50 queried roads forming a connected subcomponent,
//     30 workers on those roads (R^w ⊂ R^q), budgets K = 10..50.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

// Env is a prepared experimental environment: network, history, trained
// system, and the standard query set.
type Env struct {
	Net  *network.Network
	Hist *speedgen.History
	// TrainHist is the day-restricted view every estimator trains on; the
	// EvalDays are held out of it and serve as realtime ground truth.
	TrainHist *speedgen.DayRangeView
	Sys       *core.System
	Query     []int // R^q
	Slot      tslot.Slot
	EvalDays  []int
	Seed      int64
}

// Options scales the environment. The paper-scale settings (607 roads, 30
// days) are the defaults of Paper(); tests use Small().
type Options struct {
	Roads     int
	Days      int
	QuerySize int
	CostMax   int // C1 → 5, C2 → 10
	Slot      tslot.Slot
	Seed      int64
}

// Paper returns the full §VII-A configuration (C1 costs, |R^q| = 33).
func Paper() Options {
	return Options{Roads: 607, Days: 30, QuerySize: 33, CostMax: 5, Slot: 102, Seed: 1}
}

// Small returns a reduced configuration for fast tests.
func Small() Options {
	return Options{Roads: 80, Days: 8, QuerySize: 12, CostMax: 5, Slot: 102, Seed: 1}
}

// NewEnv builds and trains an environment.
func NewEnv(opt Options) (*Env, error) {
	net := network.Synthetic(network.SyntheticOptions{
		Roads: opt.Roads, Seed: opt.Seed, CostMax: opt.CostMax,
	})
	hist, err := speedgen.Generate(net, speedgen.Default(opt.Days, opt.Seed+1))
	if err != nil {
		return nil, err
	}
	if opt.Days < 5 {
		return nil, fmt.Errorf("experiments: need ≥5 days (train + 3 held-out), got %d", opt.Days)
	}
	train := hist.DayRange(0, opt.Days-3)
	sys, err := core.Train(net, train, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed + 2))
	query := rng.Perm(net.N())[:opt.QuerySize]
	evalDays := []int{opt.Days - 1, opt.Days - 2, opt.Days - 3}
	return &Env{
		Net: net, Hist: hist, TrainHist: train, Sys: sys, Query: query,
		Slot: opt.Slot, EvalDays: evalDays, Seed: opt.Seed,
	}, nil
}

// Truth returns the ground-truth function for an evaluation day at the
// environment's slot.
func (e *Env) Truth(day int) crowd.TruthFunc {
	return func(r int) float64 { return e.Hist.At(day, e.Slot, r) }
}

// queryTruth extracts ground truth and estimates restricted to R^q.
func (e *Env) queryTruth(day int, speeds []float64) (est, truth []float64) {
	est = make([]float64, len(e.Query))
	truth = make([]float64, len(e.Query))
	for i, r := range e.Query {
		est[i] = speeds[r]
		truth[i] = e.Hist.At(day, e.Slot, r)
	}
	return est, truth
}

// ---------------------------------------------------------------------------
// Table II — dataset statistics
// ---------------------------------------------------------------------------

// TableIIRow is one dataset's statistics line.
type TableIIRow struct {
	Dataset   string
	Rw        int
	Rq        string
	CostRange string
	KRange    string
	Theta     string
}

// TableII reports the statistics of both simulated datasets in the shape of
// the paper's Table II.
func TableII(opt Options) ([]TableIIRow, error) {
	env, err := NewEnv(opt)
	if err != nil {
		return nil, err
	}
	semi := TableIIRow{
		Dataset:   "Semi-syn",
		Rw:        env.Net.N(), // workers cover all roads
		Rq:        "33, 51",
		CostRange: "1~5, 1~10",
		KRange:    "30~150",
		Theta:     "0.92, 1",
	}
	gm := TableIIRow{
		Dataset:   "gMission",
		Rw:        30,
		Rq:        "50",
		CostRange: "1~10",
		KRange:    "10~50",
		Theta:     "0.92",
	}
	return []TableIIRow{semi, gm}, nil
}

// ---------------------------------------------------------------------------
// Figure 2 — OCS objective value (VO) vs budget, two cost ranges
// ---------------------------------------------------------------------------

// Fig2Row is one (cost range, budget) measurement of the three solvers.
type Fig2Row struct {
	CostRange       string  // "C1" or "C2"
	Budget          int     // K
	VOHybrid        float64 // Fig. 2 (a)/(b)
	VORatio         float64
	VOObj           float64
	RatioOverHybrid float64 // Fig. 2 (c)/(d)
	ObjOverHybrid   float64
}

// Figure2 sweeps the budget for both cost ranges with θ = 0.92, reporting
// VO for Hybrid/Ratio/OBJ and the ratio curves. Following the paper's §VII-B
// analysis ("costs ... randomized in a larger range C1"), C1 is the wide
// range [1,10] and C2 the narrow range [1,5].
func Figure2(opt Options, budgets []int) ([]Fig2Row, error) {
	var rows []Fig2Row
	for _, cr := range []struct {
		name    string
		costMax int
	}{{"C1", 10}, {"C2", 5}} {
		o := opt
		o.CostMax = cr.costMax
		env, err := NewEnv(o)
		if err != nil {
			return nil, err
		}
		pool := crowd.PlaceEverywhere(env.Net)
		for _, k := range budgets {
			row := Fig2Row{CostRange: cr.name, Budget: k}
			for _, sel := range []core.Selector{core.Hybrid, core.Ratio, core.Objective} {
				sol, err := env.Sys.Select(context.TODO(), core.SelectRequest{
					Slot: env.Slot, Roads: env.Query, WorkerRoads: pool.Roads(),
					Budget: k, Theta: 0.92, Selector: sel, Seed: env.Seed,
				})
				if err != nil {
					return nil, err
				}
				switch sel {
				case core.Hybrid:
					row.VOHybrid = sol.Value
				case core.Ratio:
					row.VORatio = sol.Value
				case core.Objective:
					row.VOObj = sol.Value
				}
			}
			if row.VOHybrid > 0 {
				row.RatioOverHybrid = row.VORatio / row.VOHybrid
				row.ObjOverHybrid = row.VOObj / row.VOHybrid
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 3 — estimation quality (MAPE / FER / DAPE)
// ---------------------------------------------------------------------------

// Fig3Row is one (selector, budget, estimator) quality measurement averaged
// over the evaluation days.
type Fig3Row struct {
	Selector  string // "Hybrid", "OBJ", "Rand" (columns a, b, c)
	Budget    int
	Estimator string // "GSP", "LASSO", "GRMC", "Per"
	Theta     float64
	MAPE      float64
	FER       float64
}

// Figure3 runs the estimation-quality comparison: for each selector and
// budget, select R^c, probe it, and evaluate all four estimators on the
// queried roads. theta is the redundancy threshold (0.92 in columns a–d;
// Figure3Theta compares it against 1).
func Figure3(env *Env, selectors []core.Selector, budgets []int, theta float64) ([]Fig3Row, error) {
	pool := crowd.PlaceEverywhere(env.Net)
	ests := estimatorSet(env)
	var rows []Fig3Row
	for _, sel := range selectors {
		for _, k := range budgets {
			sums := map[string][2]float64{} // name → {MAPE sum, FER sum}
			for _, day := range env.EvalDays {
				probed, err := selectAndProbe(env, pool, sel, k, theta, day)
				if err != nil {
					return nil, err
				}
				for _, est := range ests {
					speeds, err := est.Estimate(probed)
					if err != nil {
						return nil, fmt.Errorf("%s: %w", est.Name(), err)
					}
					ev, tv := env.queryTruth(day, speeds)
					s := sums[est.Name()]
					s[0] += metrics.MAPE(ev, tv)
					s[1] += metrics.FER(ev, tv, metrics.DefaultPhi)
					sums[est.Name()] = s
				}
			}
			nd := float64(len(env.EvalDays))
			for _, est := range ests {
				s := sums[est.Name()]
				rows = append(rows, Fig3Row{
					Selector: sel.String(), Budget: k, Estimator: est.Name(),
					Theta: theta, MAPE: s[0] / nd, FER: s[1] / nd,
				})
			}
		}
	}
	return rows, nil
}

// Fig3DAPERow is one estimator's APE histogram at the minimum budget
// (the paper plots DAPE only for K = 30).
type Fig3DAPERow struct {
	Estimator string
	Budget    int
	Hist      *metrics.DAPE
}

// Figure3DAPE computes the APE distribution per estimator at one budget with
// Hybrid selection.
func Figure3DAPE(env *Env, budget int) ([]Fig3DAPERow, error) {
	pool := crowd.PlaceEverywhere(env.Net)
	ests := estimatorSet(env)
	all := map[string][2][]float64{} // name → {est, truth} accumulated
	for _, day := range env.EvalDays {
		probed, err := selectAndProbe(env, pool, core.Hybrid, budget, 0.92, day)
		if err != nil {
			return nil, err
		}
		for _, est := range ests {
			speeds, err := est.Estimate(probed)
			if err != nil {
				return nil, err
			}
			ev, tv := env.queryTruth(day, speeds)
			acc := all[est.Name()]
			acc[0] = append(acc[0], ev...)
			acc[1] = append(acc[1], tv...)
			all[est.Name()] = acc
		}
	}
	var rows []Fig3DAPERow
	for _, est := range ests {
		acc := all[est.Name()]
		rows = append(rows, Fig3DAPERow{
			Estimator: est.Name(), Budget: budget,
			Hist: metrics.NewDAPE(acc[0], acc[1], 0.1, 0.5),
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Table III — 1-hop / 2-hop coverage of the queried roads
// ---------------------------------------------------------------------------

// TableIIIRow is one (selector, budget) coverage measurement.
type TableIIIRow struct {
	Selector string
	Budget   int
	OneHop   int
	TwoHop   int
}

// TableIII measures how many queried roads are covered by the 1-hop and
// 2-hop neighborhoods of the selected crowdsourced roads.
func TableIII(env *Env, budgets []int) ([]TableIIIRow, error) {
	pool := crowd.PlaceEverywhere(env.Net)
	var rows []TableIIIRow
	for _, sel := range []core.Selector{core.Objective, core.RandomSel, core.Hybrid} {
		for _, k := range budgets {
			sol, err := env.Sys.Select(context.TODO(), core.SelectRequest{
				Slot: env.Slot, Roads: env.Query, WorkerRoads: pool.Roads(),
				Budget: k, Theta: 0.92, Selector: sel, Seed: env.Seed,
			})
			if err != nil {
				return nil, err
			}
			one, two := metrics.HopCoverage(env.Net.Graph(), env.Query, sol.Roads)
			rows = append(rows, TableIIIRow{Selector: sel.String(), Budget: k, OneHop: one, TwoHop: two})
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 4 — running time
// ---------------------------------------------------------------------------

// Fig4aRow is the OCS running time per solver and budget.
type Fig4aRow struct {
	Budget int
	Hybrid time.Duration
	Ratio  time.Duration
	Obj    time.Duration
}

// Figure4a measures OCS wall time versus budget (costs C1).
func Figure4a(env *Env, budgets []int) ([]Fig4aRow, error) {
	pool := crowd.PlaceEverywhere(env.Net)
	// Warm the correlation cache so the measurement isolates the greedy
	// loops, as the paper's offline Γ_R precomputation does.
	oracle := env.Sys.Oracle(env.Slot)
	for _, q := range env.Query {
		oracle.CorrRow(q)
	}
	var rows []Fig4aRow
	for _, k := range budgets {
		row := Fig4aRow{Budget: k}
		for _, sel := range []core.Selector{core.Hybrid, core.Ratio, core.Objective} {
			start := time.Now()
			if _, err := env.Sys.Select(context.TODO(), core.SelectRequest{
				Slot: env.Slot, Roads: env.Query, WorkerRoads: pool.Roads(),
				Budget: k, Theta: 0.92, Selector: sel, Seed: env.Seed,
			}); err != nil {
				return nil, err
			}
			el := time.Since(start)
			switch sel {
			case core.Hybrid:
				row.Hybrid = el
			case core.Ratio:
				row.Ratio = el
			case core.Objective:
				row.Obj = el
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig4bRow is the estimation running time per method and budget.
type Fig4bRow struct {
	Budget int
	GSP    time.Duration
	LASSO  time.Duration
	GRMC   time.Duration
}

// Figure4b measures estimation wall time versus budget with Hybrid-selected
// probes (Per is omitted, as in the paper: its answer is a direct lookup).
func Figure4b(env *Env, budgets []int) ([]Fig4bRow, error) {
	pool := crowd.PlaceEverywhere(env.Net)
	ests := estimatorSet(env)
	day := env.EvalDays[0]
	var rows []Fig4bRow
	for _, k := range budgets {
		probed, err := selectAndProbe(env, pool, core.Hybrid, k, 0.92, day)
		if err != nil {
			return nil, err
		}
		row := Fig4bRow{Budget: k}
		for _, est := range ests {
			if est.Name() == "Per" {
				continue
			}
			start := time.Now()
			if _, err := est.Estimate(probed); err != nil {
				return nil, err
			}
			el := time.Since(start)
			switch est.Name() {
			case "GSP":
				row.GSP = el
			case "LASSO":
				row.LASSO = el
			case "GRMC":
				row.GRMC = el
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 5 — RTF training convergence vs network size
// ---------------------------------------------------------------------------

// Fig5Row is one subnetwork's training convergence measurement.
type Fig5Row struct {
	Roads      int
	Iterations int
	Converged  bool
}

// Figure5 trains RTF (vanilla gradient descent on μ, λ = 0.1, per the
// paper's footnote) on connected subnetworks of growing size and reports the
// iterations until the max μ-gradient falls under tol.
func Figure5(opt Options, sizes []int, tol float64) ([]Fig5Row, error) {
	env, err := NewEnv(opt)
	if err != nil {
		return nil, err
	}
	var rows []Fig5Row
	for _, size := range sizes {
		row, err := fig5One(env, size, tol)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 6 — gMission scenario
// ---------------------------------------------------------------------------

// Fig6Row is one (budget, estimator) quality measurement in the gMission
// setting.
type Fig6Row struct {
	Budget    int
	Estimator string
	MAPE      float64
	FER       float64
}

// Figure6 reproduces the gMission experiment: 50 queried roads forming a
// connected subcomponent, 30 workers on those roads (R^w ⊂ R^q), costs
// U[1,10], Hybrid selection, budgets K = 10..50.
func Figure6(opt Options, budgets []int) ([]Fig6Row, error) {
	o := opt
	o.CostMax = 10
	env, err := NewEnv(o)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.Seed + 7))
	qSize := 50
	nWorkers := 30
	if qSize > env.Net.N()/2 {
		qSize = env.Net.N() / 2
		nWorkers = qSize * 3 / 5
	}
	pool, comp, err := crowd.PlaceSubcomponent(env.Net, 0, qSize, nWorkers, rng)
	if err != nil {
		return nil, err
	}
	env.Query = comp // R^q is the subcomponent; R^w ⊂ R^q
	ests := estimatorSet(env)
	var rows []Fig6Row
	for _, k := range budgets {
		sums := map[string][2]float64{}
		for _, day := range env.EvalDays {
			sol, err := env.Sys.Select(context.TODO(), core.SelectRequest{
				Slot: env.Slot, Roads: env.Query, WorkerRoads: pool.Roads(),
				Budget: k, Theta: 0.92, Selector: core.Hybrid, Seed: env.Seed,
			})
			if err != nil {
				return nil, err
			}
			ledger := crowd.Ledger{Budget: k}
			probed, _, err := pool.Probe(sol.Roads, env.Net.Costs(), env.Truth(day),
				crowd.ProbeConfig{NoiseSD: 0.02, Seed: int64(day)}, &ledger)
			if err != nil {
				return nil, err
			}
			for _, est := range ests {
				speeds, err := est.Estimate(probed)
				if err != nil {
					return nil, err
				}
				ev, tv := env.queryTruth(day, speeds)
				s := sums[est.Name()]
				s[0] += metrics.MAPE(ev, tv)
				s[1] += metrics.FER(ev, tv, metrics.DefaultPhi)
				sums[est.Name()] = s
			}
		}
		nd := float64(len(env.EvalDays))
		for _, est := range ests {
			s := sums[est.Name()]
			rows = append(rows, Fig6Row{Budget: k, Estimator: est.Name(), MAPE: s[0] / nd, FER: s[1] / nd})
		}
	}
	return rows, nil
}
