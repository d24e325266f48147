// Calibration ablation (PR 9): does the served uncertainty mean what it
// says? Every estimate now carries a posterior SD priced by the
// heteroscedastic observation-noise vector and a conformal calibration
// scale; every degraded QoS tier inflates that SD by what the tier actually
// dropped. This file measures the empirical coverage of the resulting
// credible intervals — the fraction of roads whose held-out truth falls
// inside the interval — across probe densities, service tiers and nominal
// levels, plus the variance-minimizing OCS ablation the PR's gate checks.
//
// Calibration is split-conformal with an interleaved split: each evaluation
// day's walked window alternates calibration slots (even offsets) and
// scoring slots (odd offsets). The scale is the empirical-quantile ratio
// q̂(|z|)/z_Gauss pooled over the calibration slots; coverage is scored on
// the scoring slots only. Interleaving keeps the two pools exchangeable —
// incident-heavy regimes land in both — which per-day-disjoint splits do
// not (residual spread varies ~2× day to day), and it mirrors how a
// realtime deployment would calibrate: from the residuals its own probes
// revealed over the last few slots.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/gsp"
	"repro/internal/stattest"
	"repro/internal/temporal"
	"repro/internal/tslot"
)

// calibProbeNoiseFrac is the multiplicative probe-noise fraction of the
// semi-synthesized dataset (truth · (1 + 0.02·ε)), the same 2% every other
// experiment in this package uses. The installed observation-noise model
// prices a probe at (0.02·μ_r)² — the fraction against the periodicity
// prior, since the server cannot see truth.
const calibProbeNoiseFrac = 0.02

// calibServingLevel is the credible level the scales are calibrated at: the
// server's default interval level.
const calibServingLevel = 0.9

// calibPriorMargin is the extra quantile mass the prior tier's scale is fit
// at (0.9 + 0.05 → the 95th-percentile residual backs the "90%" interval).
// Degraded tiers promise conservative coverage — ≥ nominal, not ≈ nominal —
// so their calibration carries a deliberate safety margin.
const calibPriorMargin = 0.05

// CalibrationCell is one (probe density, service tier, nominal level) cell
// of the coverage sweep.
type CalibrationCell struct {
	Probes int
	Tier   string
	Level  float64
	// Coverage is the fraction of road×slot×day samples whose held-out truth
	// fell inside the central credible interval at Level.
	Coverage float64
	// N is the sample count behind Coverage.
	N int
	// MeanWidth is the mean interval width (km/h) — the price of coverage.
	MeanWidth float64
}

// CalibrationResult is the full sweep plus the fitted calibration factors.
type CalibrationResult struct {
	SDScale    float64
	PriorScale float64
	Slots      int
	Cells      []CalibrationCell
}

// calibTiers is the sweep's tier axis, in degradation order.
var calibTiers = []string{"full", "batched", "cached", "prior"}

// obsNoiseVec builds the slot's observation-noise model: probe variance
// (0.02·μ_r)² against the periodicity prior's mean field.
func obsNoiseVec(env *Env, t tslot.Slot) []float64 {
	view := env.Sys.Model().At(t)
	noise := make([]float64, env.Net.N())
	for r := range noise {
		sd := calibProbeNoiseFrac * view.Mu[r]
		noise[r] = sd * sd
	}
	return noise
}

// slotSched is one walked slot's deterministic probe schedule: a leader and
// a follower permutation with one noise draw per road each. Density k
// probes a permutation's first k roads, so probe sets are nested across
// densities.
type slotSched struct {
	permA, permB   []int
	noiseA, noiseB []float64
}

// calibSchedule draws one evaluation day's schedule for `total` walked
// slots. The stream is seeded per day, so fits and sweeps that walk the
// same day reproduce the same probes.
func calibSchedule(env *Env, day, total int) []slotSched {
	n := env.Net.N()
	rng := rand.New(rand.NewSource(env.Seed + int64(7919*day)))
	sched := make([]slotSched, total)
	for i := range sched {
		s := slotSched{
			permA: rng.Perm(n), permB: rng.Perm(n),
			noiseA: make([]float64, n), noiseB: make([]float64, n),
		}
		for r := 0; r < n; r++ {
			s.noiseA[r] = rng.NormFloat64()
			s.noiseB[r] = rng.NormFloat64()
		}
		sched[i] = s
	}
	return sched
}

// probeSet materializes one density's probe map from a schedule draw.
func probeSet(env *Env, day int, t tslot.Slot, perm []int, noise []float64, d int) map[int]float64 {
	m := make(map[int]float64, d)
	for _, r := range perm[:d] {
		m[r] = env.Hist.At(day, t, r) * (1 + calibProbeNoiseFrac*noise[r])
	}
	return m
}

// conformalQuantile is the split-conformal empirical quantile: the
// ⌈(n+1)p⌉-th order statistic, the finite-sample-valid choice.
func conformalQuantile(zs []float64, p float64) float64 {
	sort.Float64s(zs)
	k := int(math.Ceil(p * float64(len(zs)+1)))
	if k > len(zs) {
		k = len(zs)
	}
	if k < 1 {
		k = 1
	}
	return zs[k-1]
}

// FitSDScale fits the fused-SD calibration factor: the conformal quantile
// ratio q̂(|truth−est|/SD)/z at the serving level, pooled over every
// calibration slot (even offsets of each evaluation day's 2·slots window),
// probe density and fused road. The fit runs with the scale cleared and the
// slot's heteroscedastic noise model installed; the caller decides whether
// to install the result (Sys.SetSDScale).
func FitSDScale(env *Env, densities []int, slots int) (float64, error) {
	oldScale := env.Sys.SDScale()
	oldNoise := env.Sys.ObsNoise()
	env.Sys.SetSDScale(0)
	defer func() {
		env.Sys.SetSDScale(oldScale)
		env.Sys.SetObsNoise(oldNoise)
	}()

	var zs []float64
	for _, day := range env.EvalDays {
		sched := calibSchedule(env, day, 2*slots)
		t := env.Slot
		for i := 0; i < 2*slots; i++ {
			if i > 0 {
				t = t.Next()
			}
			if i%2 != 0 {
				continue // scoring slot: its truth stays held out
			}
			if err := env.Sys.SetObsNoise(obsNoiseVec(env, t)); err != nil {
				return 0, err
			}
			for _, d := range densities {
				res, err := env.Sys.Estimate(context.TODO(), t, probeSet(env, day, t, sched[i].permA, sched[i].noiseA, d))
				if err != nil {
					return 0, err
				}
				for r := 0; r < env.Net.N(); r++ {
					if res.Provenance[r] != gsp.ProvFused || res.SD[r] <= 0 {
						continue
					}
					zs = append(zs, math.Abs(env.Hist.At(day, t, r)-res.Speeds[r])/res.SD[r])
				}
			}
		}
	}
	if len(zs) == 0 {
		return 0, fmt.Errorf("experiments: no fused roads in the SD-scale fit")
	}
	return conformalQuantile(zs, calibServingLevel) / stattest.IntervalZ(calibServingLevel), nil
}

// FitPriorScale fits the prior tier's Σ calibration factor on the same
// calibration slots, against the raw (unscaled) prior field — with the
// conservative margin: the quantile is taken at level + calibPriorMargin,
// so the degraded tier's intervals land above nominal, not merely at it.
func FitPriorScale(env *Env, slots int) (float64, error) {
	var zs []float64
	for _, day := range env.EvalDays {
		t := env.Slot
		for i := 0; i < 2*slots; i++ {
			if i > 0 {
				t = t.Next()
			}
			if i%2 != 0 {
				continue
			}
			view := env.Sys.Model().At(t)
			for r := 0; r < env.Net.N(); r++ {
				if view.Sigma[r] <= 0 {
					continue
				}
				zs = append(zs, math.Abs(env.Hist.At(day, t, r)-view.Mu[r])/view.Sigma[r])
			}
		}
	}
	if len(zs) == 0 {
		return 0, fmt.Errorf("experiments: no roads in the prior-scale fit")
	}
	p := calibServingLevel + calibPriorMargin
	return conformalQuantile(zs, p) / stattest.IntervalZ(calibServingLevel), nil
}

// CalibrationAblation walks a 2·slots window on every evaluation day at
// each probe density, fits the calibration scales on the window's even
// slots, serves every odd slot through all four QoS tiers, and scores the
// central credible interval of every road against held-out truth at each
// nominal level.
//
// Tier simulation mirrors production serving exactly — the same exported
// transforms the tiered estimator applies:
//
//   - full: the slot's own GSP estimate (core.FullTierResult).
//   - batched: a follower rides the leader's field; the follower's own probe
//     draw (an independent permutation) prices the evidence gap
//     (core.BatchedTierResult).
//   - cached: the previous walked slot's field served one slot stale,
//     AR(1)-aged and gap-priced against the current probes
//     (core.CachedTierResult).
//   - prior: the periodicity prior's calibrated Σ, no tier inflation
//     (core.PriorTierResult over Sys.PriorField).
//
// Probe sets are NESTED across densities (one permutation per day×slot,
// density k probes its prefix), so the density axis isolates sparsity. The
// system's noise/scale state is restored on return.
func CalibrationAblation(env *Env, densities []int, levels []float64, slots int) (*CalibrationResult, error) {
	if slots < 2 {
		return nil, fmt.Errorf("experiments: calibration needs ≥2 scored slots, got %d", slots)
	}
	if len(densities) == 0 || len(levels) == 0 {
		return nil, fmt.Errorf("experiments: calibration needs ≥1 density and ≥1 level")
	}
	n := env.Net.N()
	for _, d := range densities {
		if d < 1 || d > n {
			return nil, fmt.Errorf("experiments: probe density %d out of range", d)
		}
	}
	for _, lv := range levels {
		if !(lv > 0 && lv < 1) {
			return nil, fmt.Errorf("experiments: credible level %v outside (0,1)", lv)
		}
	}

	oldScale := env.Sys.SDScale()
	oldPrior := env.Sys.PriorScale()
	oldNoise := env.Sys.ObsNoise()
	defer func() {
		env.Sys.SetSDScale(oldScale)
		env.Sys.SetPriorScale(oldPrior)
		env.Sys.SetObsNoise(oldNoise)
	}()

	scale, err := FitSDScale(env, densities, slots)
	if err != nil {
		return nil, err
	}
	priorScale, err := FitPriorScale(env, slots)
	if err != nil {
		return nil, err
	}
	env.Sys.SetSDScale(scale)
	env.Sys.SetPriorScale(priorScale)

	// Cache-age decay parameters: the same per-class AR(1) table the tiered
	// estimator falls back to without an attached filter.
	params := temporal.DefaultParams()
	phiV := make([]float64, n)
	qV := make([]float64, n)
	for r := 0; r < n; r++ {
		cp := params.For(env.Net.Road(r).Class)
		phiV[r] = cp.Phi
		qV[r] = cp.Q
	}
	phiFn := func(r int) float64 { return phiV[r] }
	qFn := func(r int) float64 { return qV[r] }

	type acc struct {
		hit, n int
		width  float64
	}
	cells := make([]acc, len(densities)*len(calibTiers)*len(levels))
	cellAt := func(di, ti, li int) *acc {
		return &cells[(di*len(calibTiers)+ti)*len(levels)+li]
	}
	zs := make([]float64, len(levels))
	for li, lv := range levels {
		zs[li] = stattest.IntervalZ(lv)
	}

	for _, day := range env.EvalDays {
		sched := calibSchedule(env, day, 2*slots)
		prev := make([]*gsp.Result, len(densities))
		t := env.Slot
		for i := 0; i < 2*slots; i++ {
			if i > 0 {
				t = t.Next()
			}
			if err := env.Sys.SetObsNoise(obsNoiseVec(env, t)); err != nil {
				return nil, err
			}
			truth := make([]float64, n)
			for r := 0; r < n; r++ {
				truth[r] = env.Hist.At(day, t, r)
			}
			for di, d := range densities {
				obsA := probeSet(env, day, t, sched[i].permA, sched[i].noiseA, d)
				resA, err := env.Sys.Estimate(context.TODO(), t, obsA)
				if err != nil {
					return nil, err
				}
				if i%2 != 0 && prev[di] != nil {
					obsB := probeSet(env, day, t, sched[i].permB, sched[i].noiseB, d)
					full := core.FullTierResult(resA)
					batched := core.BatchedTierResult(resA, obsB)
					cached := core.CachedTierResult(*prev[di], obsA, 1, phiFn, qFn)
					prior := core.PriorTierResult(env.Sys.PriorField(t))
					for ti, tr := range []*core.TierResult{&full, &batched, &cached, &prior} {
						for li := range levels {
							a := cellAt(di, ti, li)
							for r := 0; r < n; r++ {
								h := zs[li] * tr.SD[r]
								if tr.Speeds[r]-h <= truth[r] && truth[r] <= tr.Speeds[r]+h {
									a.hit++
								}
								a.width += 2 * h
								a.n++
							}
						}
					}
				}
				cp := resA
				prev[di] = &cp
			}
		}
	}

	out := &CalibrationResult{SDScale: scale, PriorScale: priorScale, Slots: slots}
	for di, d := range densities {
		for ti, tier := range calibTiers {
			for li, lv := range levels {
				a := cellAt(di, ti, li)
				if a.n == 0 {
					return nil, fmt.Errorf("experiments: empty calibration cell %d/%s/%v", d, tier, lv)
				}
				out.Cells = append(out.Cells, CalibrationCell{
					Probes:    d,
					Tier:      tier,
					Level:     lv,
					Coverage:  float64(a.hit) / float64(a.n),
					N:         a.n,
					MeanWidth: a.width / float64(a.n),
				})
			}
		}
	}
	return out, nil
}

// VarMinRow is one budget level of the OCS objective ablation: realized
// total posterior variance over the query roads (Σ SD², summed over
// evaluation days) when the probe set is chosen by the correlation
// objective vs the variance-minimizing objective, at equal budget.
type VarMinRow struct {
	Budget    int
	HybridVar float64
	VarMinVar float64
	// WinPct is the variance-minimizing objective's relative reduction in
	// percent (positive = VarMin better).
	WinPct float64
}

// VarMinAblation runs OCS under both objectives at each budget with the
// worker pool everywhere, probes each selection against the day's truth,
// re-estimates, and totals the realized posterior variance on the query
// roads. The slot's heteroscedastic noise model is installed so probed
// roads are priced at their true evidence value; state is restored on
// return.
func VarMinAblation(env *Env, budgets []int, theta float64) ([]VarMinRow, error) {
	oldNoise := env.Sys.ObsNoise()
	defer func() { env.Sys.SetObsNoise(oldNoise) }()
	if err := env.Sys.SetObsNoise(obsNoiseVec(env, env.Slot)); err != nil {
		return nil, err
	}
	pool := everywherePool(env)
	rows := make([]VarMinRow, 0, len(budgets))
	for _, budget := range budgets {
		if budget < 1 {
			return nil, fmt.Errorf("experiments: budget %d < 1", budget)
		}
		var hv, vv float64
		for _, day := range env.EvalDays {
			for _, run := range []struct {
				sel core.Selector
				sum *float64
			}{{core.Hybrid, &hv}, {core.VarMin, &vv}} {
				probed, err := selectAndProbe(env, pool, run.sel, budget, theta, day)
				if err != nil {
					return nil, err
				}
				res, err := env.Sys.Estimate(context.TODO(), env.Slot, probed)
				if err != nil {
					return nil, err
				}
				for _, r := range env.Query {
					*run.sum += res.SD[r] * res.SD[r]
				}
			}
		}
		win := 0.0
		if hv > 0 {
			win = 100 * (hv - vv) / hv
		}
		rows = append(rows, VarMinRow{Budget: budget, HybridVar: hv, VarMinVar: vv, WinPct: win})
	}
	return rows, nil
}

// RenderCalibration writes the coverage sweep as text, one block per probe
// density.
func RenderCalibration(w io.Writer, res *CalibrationResult) {
	fmt.Fprintf(w, "Calibration: empirical interval coverage (SD scale %.3f, prior scale %.3f)\n",
		res.SDScale, res.PriorScale)
	fmt.Fprintf(w, "%8s %8s %8s %10s %8s %10s\n", "probes", "tier", "level", "coverage", "n", "width")
	lastProbes := -1
	for _, c := range res.Cells {
		if c.Probes != lastProbes && lastProbes != -1 {
			fmt.Fprintln(w)
		}
		lastProbes = c.Probes
		fmt.Fprintf(w, "%8d %8s %8.2f %10.4f %8d %10.3f\n",
			c.Probes, c.Tier, c.Level, c.Coverage, c.N, c.MeanWidth)
	}
}

// RenderVarMin writes the OCS objective ablation as text.
func RenderVarMin(w io.Writer, rows []VarMinRow) {
	fmt.Fprintf(w, "OCS objective ablation: realized Σ SD² on R^q at equal budget\n")
	fmt.Fprintf(w, "%8s %12s %12s %8s\n", "budget", "corr", "varmin", "win%")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %12.4f %12.4f %7.1f%%\n", r.Budget, r.HybridVar, r.VarMinVar, r.WinPct)
	}
}
