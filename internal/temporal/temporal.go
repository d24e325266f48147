// Package temporal adds the cross-slot dynamic layer the per-slot pipeline
// lacks: a per-road linear-Gaussian state-space filter over slot transitions
// (ROADMAP item 2). The paper estimates every 5-minute slot independently —
// the previous field is at best a warm-start seed — but the traffic state is
// strongly autocorrelated across slots (speedgen synthesizes it with an AR(1)
// latent field, and the STC line of work exploits exactly this), so evidence
// gathered at slot t should still inform slot t+1.
//
// # State
//
// The filter state is each road's speed *deviation* from the RTF periodicity
// prior, x_i(t) = v_i(t) − μ_i^t. Working in deviations makes the midnight
// wrap trivial — advancing from slot 287 to slot 0 re-bases the state onto
// the day-wrapped prior μ^0 automatically — and makes the stationary regime
// of the filter coincide with the prior itself: with no evidence, the
// forecast mean reverts to μ and the variance to Q/(1−φ²) ≈ σ².
//
// # Dynamics
//
//	predict:  x ← φ·x            P ← φ²·P + Q       (mean-reverting AR(1))
//	update:   K = P/(P+R)        x ← x + K(z−x)     P ← (1−K)·P
//
// φ and Q are per road class (highway traffic is more persistent than local
// streets), fit from historical consecutive-slot deviation pairs (FitAR1)
// with sane defaults. The update fuses a slot's crowd aggregates (z =
// aggregate − μ, measurement noise R per road), each slot once: a serving
// filter is written only by core.Batcher.Report, which fuses a slot as a
// report walks the filter past it. A road without a report keeps its
// predicted state; the filter never fuses a propagated GSP field.
//
// # Forecast
//
// Forecast(k) iterates the predict step k times without touching the filter
// state, giving an estimate for slot t+k with honestly widening variance:
// the per-step variance is clamped monotone non-decreasing in the horizon
// (never report more confidence about a farther future), converging to the
// stationary prior band.
package temporal

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/rtf"
	"repro/internal/tslot"
)

// ClassParams are the AR(1) transition parameters of one road class.
type ClassParams struct {
	// Phi is the slot-to-slot mean-reversion coefficient in [0, PhiMax].
	Phi float64
	// Q is the process-noise variance added per predict step (speed² units).
	Q float64
}

// PhiMax bounds φ away from a unit root so the stationary variance
// Q/(1−φ²) stays finite and forecasts revert to the prior.
const PhiMax = 0.995

// Params hold the per-class transition parameters. Classes without an entry
// use Default.
type Params struct {
	Default ClassParams
	ByClass map[network.Class]ClassParams
}

// DefaultParams mirror the speed generator's temporal structure (slot-to-slot
// AR(1) coefficient 0.8) with a process noise that puts the stationary
// deviation band near a typical σ of the fitted models.
func DefaultParams() Params {
	return Params{Default: ClassParams{Phi: 0.8, Q: 4.0}}
}

// forClass resolves the parameters of one class.
func (p Params) forClass(c network.Class) ClassParams {
	if cp, ok := p.ByClass[c]; ok {
		return cp
	}
	return p.Default
}

// For resolves one class's transition parameters — exported so the tier
// layer (core.CachedTierResult) and the calibration experiments can price
// cache age with the same φ/Q the filter itself would use.
func (p Params) For(c network.Class) ClassParams { return p.forClass(c) }

// FitAR1 fits per-class φ and Q from historical consecutive-slot deviation
// pairs: for every road of the class and every in-day slot pair (t, t+1),
// x_t = v(d,t,r) − μ^t_r regressed against x_{t+1}. The closed-form least
// squares φ = Σx_t·x_{t+1} / Σx_t² and residual variance Q are clamped to
// sane ranges; classes with too little signal keep the defaults. classes may
// be nil (every road falls in one default class).
func FitAR1(model *rtf.Model, hist rtf.History, classes []network.Class) Params {
	out := DefaultParams()
	out.ByClass = make(map[network.Class]ClassParams)
	if model == nil || hist == nil || hist.NumDays() == 0 {
		return out
	}
	type acc struct {
		xx, xy float64 // Σx_t², Σx_t·x_{t+1}
		n      int
	}
	sums := make(map[network.Class]*acc)
	classOf := func(r int) network.Class {
		if r < len(classes) {
			return classes[r]
		}
		return network.Class(0)
	}
	// Subsample slots on big histories: the AR structure is stationary across
	// the day, so every 4th slot pair estimates it as well as all 287.
	stride := 1
	if model.N()*hist.NumDays() > 50_000 {
		stride = 4
	}
	days := hist.NumDays()
	for d := 0; d < days; d++ {
		for t := 0; t < tslot.PerDay-1; t += stride {
			s0, s1 := tslot.Slot(t), tslot.Slot(t+1)
			for r := 0; r < model.N(); r++ {
				x0 := hist.Speed(d, s0, r) - model.Mu(s0, r)
				x1 := hist.Speed(d, s1, r) - model.Mu(s1, r)
				a := sums[classOf(r)]
				if a == nil {
					a = &acc{}
					sums[classOf(r)] = a
				}
				a.xx += x0 * x0
				a.xy += x0 * x1
				a.n++
			}
		}
	}
	// Second pass for the residual variance needs φ first, so compute it from
	// the same sufficient statistics: Q = E[x₁²] − φ·E[x₀x₁] would require
	// Σx₁²; re-walk cheaply accumulating the residuals per class.
	phis := make(map[network.Class]float64, len(sums))
	for c, a := range sums {
		if a.n < 32 || a.xx <= 0 {
			continue
		}
		phis[c] = clampPhi(a.xy / a.xx)
	}
	res := make(map[network.Class]*acc)
	for d := 0; d < days; d++ {
		for t := 0; t < tslot.PerDay-1; t += stride {
			s0, s1 := tslot.Slot(t), tslot.Slot(t+1)
			for r := 0; r < model.N(); r++ {
				c := classOf(r)
				phi, ok := phis[c]
				if !ok {
					continue
				}
				x0 := hist.Speed(d, s0, r) - model.Mu(s0, r)
				x1 := hist.Speed(d, s1, r) - model.Mu(s1, r)
				e := x1 - phi*x0
				a := res[c]
				if a == nil {
					a = &acc{}
					res[c] = a
				}
				a.xx += e * e
				a.n++
			}
		}
	}
	for c, phi := range phis {
		q := out.Default.Q
		if a := res[c]; a != nil && a.n > 0 {
			q = a.xx / float64(a.n)
		}
		if q < 1e-3 {
			q = 1e-3
		}
		out.ByClass[c] = ClassParams{Phi: phi, Q: q}
	}
	return out
}

func clampPhi(phi float64) float64 {
	if phi < 0 || math.IsNaN(phi) {
		return 0
	}
	if phi > PhiMax {
		return PhiMax
	}
	return phi
}

// measurementVar is the measurement-noise variance of a probe answer when
// the caller supplies no per-road noise: the crowd aggregates are already
// MAD-filtered means.
const measurementVar = 1.0

// Options configure a Filter.
type Options struct {
	// Metrics is the instrument block (nil-safe fields).
	Metrics obs.TemporalMetrics
}

// Estimate is a filtered field at one slot: posterior mean and SD per road.
type Estimate struct {
	Slot   tslot.Slot
	Speeds []float64
	SD     []float64
}

// ForecastStep is one horizon step of a forecast fan.
type ForecastStep struct {
	// Step is the horizon k ≥ 1; Slot is the target slot (base slot + k,
	// wrapping past midnight).
	Step   int
	Slot   tslot.Slot
	Speeds []float64
	SD     []float64
}

// Filter is the per-road state-space filter. Safe for concurrent use; every
// mutating call advances or re-weights all roads together so the state stays
// a coherent field.
type Filter struct {
	model *rtf.Model
	opt   Options

	mu   sync.Mutex
	slot tslot.Slot
	x    []float64 // deviation mean per road
	p    []float64 // deviation variance per road
	phi  []float64 // per-road transition coefficient
	q    []float64 // per-road process noise
	// fused counts the measurements absorbed since construction/Reset. A filter with fused == 0 still sits at the prior, so
	// seeding anything from it is a no-op dressed as evidence.
	fused int
}

// New builds a filter over the model at the given start slot, initialized at
// the periodicity prior (x = 0, P = σ²). classes may be nil: every road then
// uses params.Default.
func New(model *rtf.Model, start tslot.Slot, params Params, classes []network.Class, opt Options) (*Filter, error) {
	if model == nil {
		return nil, fmt.Errorf("temporal: nil model")
	}
	if !start.Valid() {
		return nil, fmt.Errorf("temporal: invalid start slot %d", start)
	}
	n := model.N()
	f := &Filter{
		model: model,
		opt:   opt,
		slot:  start,
		x:     make([]float64, n),
		p:     make([]float64, n),
		phi:   make([]float64, n),
		q:     make([]float64, n),
	}
	for r := 0; r < n; r++ {
		c := network.Class(0)
		if r < len(classes) {
			c = classes[r]
		}
		cp := params.forClass(c)
		f.phi[r] = clampPhi(cp.Phi)
		f.q[r] = math.Max(cp.Q, 1e-6)
		s := model.Sigma(start, r)
		f.x[r] = 0
		f.p[r] = s * s
	}
	return f, nil
}

// N returns the number of roads the filter covers.
func (f *Filter) N() int { return len(f.x) }

// RoadParams returns road r's fitted transition parameters (φ, Q). The
// per-road slices are immutable after New, so the read is lock-free; out of
// range returns (0, 0).
func (f *Filter) RoadParams(r int) (phi, q float64) {
	if r < 0 || r >= len(f.phi) {
		return 0, 0
	}
	return f.phi[r], f.q[r]
}

// Slot returns the slot the state currently describes.
func (f *Filter) Slot() tslot.Slot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.slot
}

// Advance runs predict steps until the state describes slot `to`, stepping
// forward cyclically (287 → 0 wraps onto the next day's prior). Advancing to
// the current slot is a no-op. It returns the number of predict steps taken.
func (f *Filter) Advance(to tslot.Slot) (int, error) {
	if !to.Valid() {
		return 0, fmt.Errorf("temporal: invalid slot %d", to)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	steps := 0
	for f.slot != to {
		f.predictLocked()
		f.slot = f.slot.Next()
		steps++
	}
	f.opt.Metrics.Predicts.Add(steps)
	return steps, nil
}

// predictLocked applies one AR(1) transition to every road.
func (f *Filter) predictLocked() {
	for r := range f.x {
		f.x[r] *= f.phi[r]
		f.p[r] = f.phi[r]*f.phi[r]*f.p[r] + f.q[r]
	}
}

// Update fuses fresh probe answers into the current slot's state. noiseVar
// maps a road to its measurement-noise variance (answer dispersion, e.g. from
// workerqual reliabilities); nil uses measurementVar for every road.
// Roads outside the observation map keep their predicted state.
func (f *Filter) Update(observed map[int]float64, noiseVar func(road int) float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	// Validate every key before fusing any: map iteration order is random, so
	// bailing mid-loop would leave a partially-updated field behind an error.
	if err := f.checkRoads(observed); err != nil {
		return err
	}
	for r, v := range observed {
		rv := measurementVar
		if noiseVar != nil {
			if w := noiseVar(r); w > 0 {
				rv = w
			}
		}
		f.updateOneLocked(r, v-f.model.Mu(f.slot, r), rv)
	}
	f.fused += len(observed)
	f.opt.Metrics.Updates.Add(len(observed))
	return nil
}

// checkRoads verifies every observed road id is in range.
func (f *Filter) checkRoads(observed map[int]float64) error {
	n := len(f.x)
	for r := range observed {
		if r < 0 || r >= n {
			return fmt.Errorf("temporal: observed road %d out of range", r)
		}
	}
	return nil
}

// updateOneLocked is the scalar Kalman update of one road: z is the observed
// deviation, rv the measurement variance.
func (f *Filter) updateOneLocked(r int, z, rv float64) {
	f.x[r], f.p[r] = kalman1(f.x[r], f.p[r], z, rv)
}

// kalman1 is the scalar Kalman update: deviation mean x and variance p fused
// with observed deviation z under measurement variance rv.
func kalman1(x, p, z, rv float64) (float64, float64) {
	k := p / (p + rv)
	x += k * (z - x)
	p *= 1 - k
	if p < 1e-9 {
		p = 1e-9
	}
	return x, p
}

// Fused reports how many measurements the filter has absorbed since
// construction or the last Reset. Zero means the state is
// still the bare prior.
func (f *Filter) Fused() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fused
}

// Now returns the filtered posterior field at the current slot: mean μ + x,
// SD = √P. The slices are fresh copies.
func (f *Filter) Now() Estimate {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.estimateLocked()
}

func (f *Filter) estimateLocked() Estimate {
	est := Estimate{
		Slot:   f.slot,
		Speeds: make([]float64, len(f.x)),
		SD:     make([]float64, len(f.x)),
	}
	for r := range f.x {
		v := f.model.Mu(f.slot, r) + f.x[r]
		if v < 0 {
			v = 0
		}
		est.Speeds[r] = v
		est.SD[r] = math.Sqrt(f.p[r])
	}
	return est
}

// Forecast predicts the field k ≥ 1 slots ahead without mutating the filter
// state, returning one step per horizon. The variance is clamped monotone
// non-decreasing in the horizon: iterating P ← φ²P + Q can *shrink* an
// inflated present-day variance toward the stationary band, but a forecast
// must never claim more certainty about a farther future, so each step
// reports max(previous step, transition). The mean reverts toward the target
// slot's prior as φᵏ decays.
func (f *Filter) Forecast(k int) ([]ForecastStep, error) {
	if k < 1 {
		return nil, fmt.Errorf("temporal: forecast horizon %d < 1", k)
	}
	slot, x, v := f.snapshot()
	return f.rollout(slot, x, v, k), nil
}

// ForecastFrom answers a forecast fan whose base is slot `base` without
// mutating the filter — the /v1/forecast path. The state is snapshotted under
// one lock, the *snapshot* is predicted forward to the base slot (cyclically;
// a base behind the filter's slot is the next day's occurrence of that
// time-of-day, by which point the state has reverted to the prior band), the
// supplied observations are fused into the snapshot only, and the fan is
// rolled out k steps. Because the shared state never moves, a client cannot
// decay the filter by asking about a distant base, a concurrent report walk
// cannot race the fuse onto the wrong slot's prior, and polling the same
// slot repeatedly re-fuses the same evidence into a fresh snapshot each time
// instead of compounding it.
func (f *Filter) ForecastFrom(base tslot.Slot, k int, observed map[int]float64, noiseVar func(road int) float64) ([]ForecastStep, error) {
	if !base.Valid() {
		return nil, fmt.Errorf("temporal: invalid slot %d", base)
	}
	if k < 1 {
		return nil, fmt.Errorf("temporal: forecast horizon %d < 1", k)
	}
	if err := f.checkRoads(observed); err != nil {
		return nil, err
	}
	slot, x, v := f.snapshot()
	// Sync the snapshot to the base slot with true (unclamped) predict steps:
	// this is "where the state would be at base", not yet a forecast claim, so
	// the variance follows the real transition rather than the monotone bound.
	for slot != base {
		for r := range x {
			x[r] *= f.phi[r]
			v[r] = f.phi[r]*f.phi[r]*v[r] + f.q[r]
		}
		slot = slot.Next()
	}
	for r, z := range observed {
		rv := measurementVar
		if noiseVar != nil {
			if w := noiseVar(r); w > 0 {
				rv = w
			}
		}
		x[r], v[r] = kalman1(x[r], v[r], z-f.model.Mu(slot, r), rv)
	}
	return f.rollout(slot, x, v, k), nil
}

// snapshot copies the state under the lock: slot, deviation means, variances.
// phi, q and model are immutable after New, so the copies can be worked on
// lock-free.
func (f *Filter) snapshot() (tslot.Slot, []float64, []float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.slot, append([]float64(nil), f.x...), append([]float64(nil), f.p...)
}

// rollout iterates the predict step k times over a state copy, clamping the
// variance monotone non-decreasing in the horizon, and records the depth
// histogram. x and v are consumed.
func (f *Filter) rollout(slot tslot.Slot, x, v []float64, k int) []ForecastStep {
	n := len(x)
	steps := make([]ForecastStep, 0, k)
	for j := 1; j <= k; j++ {
		slot = slot.Next()
		st := ForecastStep{Step: j, Slot: slot, Speeds: make([]float64, n), SD: make([]float64, n)}
		for r := 0; r < n; r++ {
			x[r] *= f.phi[r]
			next := f.phi[r]*f.phi[r]*v[r] + f.q[r]
			if next > v[r] {
				v[r] = next
			}
			mean := f.model.Mu(slot, r) + x[r]
			if mean < 0 {
				mean = 0
			}
			st.Speeds[r] = mean
			st.SD[r] = math.Sqrt(v[r])
		}
		steps = append(steps, st)
	}
	// The depth histogram records horizons as integer "seconds" (1 slot ≡ 1s)
	// so the fixed-bucket latency histogram doubles as a depth histogram.
	f.opt.Metrics.ForecastDepth.Observe(time.Duration(k) * time.Second)
	return steps
}

// Reset re-initializes the state at the prior of the given slot (x = 0,
// P = σ²). core.Batcher.Report calls it to jump or restart the filter at a
// report's slot.
func (f *Filter) Reset(t tslot.Slot) error {
	if !t.Valid() {
		return fmt.Errorf("temporal: invalid slot %d", t)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.slot = t
	f.fused = 0
	for r := range f.x {
		s := f.model.Sigma(t, r)
		f.x[r] = 0
		f.p[r] = s * s
	}
	return nil
}
