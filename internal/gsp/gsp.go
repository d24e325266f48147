// Package gsp implements Graph-based Speed Propagation (§VI, Alg. 5): given
// realtime speeds probed on the crowdsourced roads R^c, infer the most
// likely speeds for the whole network under the RTF model.
//
// Initialization sets v_i = v̂_i on probed roads and v_j = μ_j^t elsewhere.
// The update sequence is scheduled by hop-count toward R^c (breadth-first
// layers), so information spreads outward one ring per sweep. Each update is
// the exact coordinate maximizer of the slot likelihood (Eq. 18):
//
//	v_i* = (μ_i/σ_i² + Σ_{j∈n(i)} (v_j + μ_ij)/σ_ij²) /
//	       (1/σ_i²  + Σ_{j∈n(i)} 1/σ_ij²)
//
// Roads with no probed road in their component keep μ (a fixed point of
// Eq. 18). Convergence: the largest value change in a sweep falls below ε.
package gsp

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/rtf"
)

// Options configures Propagate.
type Options struct {
	Epsilon  float64 // ε, convergence threshold on the max value change
	MaxIters int     // sweep cap

	// Initial, when non-nil, runs incremental delta propagation: the engine
	// seeds from the previous Result's field, diffs the new observations
	// against the ones that produced it, and sweeps only a dirty frontier
	// that grows breadth-first from the changed roads. Once the frontier
	// quiesces, full verification sweeps apply the exact cold-run convergence
	// criterion (max change < Epsilon), so the returned field matches a cold
	// run within Epsilon while the sweeps stay proportional to how much the
	// observations actually moved. Set via WithInitial. Initial.Speeds must
	// cover every road of the network.
	Initial *Result

	// Metrics, when non-nil, receives the propagation counters (runs,
	// sweeps, convergence/abort outcomes, latency). All obs instruments are
	// nil-safe, so a partially wired set is fine.
	Metrics *obs.GSPMetrics

	// ObsNoise, when non-nil, is the per-road heteroscedastic
	// observation-noise *variance* R_r (speed² units), one entry per road —
	// typically seeded from workerqual answer dispersion with per-road-class
	// defaults. It changes only the uncertainty side of the result: a probed
	// road's served value is still the probe itself, but its SD becomes √R_r
	// (the probe's honest error) instead of 0, and the certainty it lends its
	// neighbors is discounted to σ_r²/(σ_r²+R_r). Nil, or R_r = 0, reproduces
	// the noise-free behavior exactly.
	ObsNoise []float64

	// SDScale is a global calibration factor multiplied onto the SD of every
	// *non-observed* road (observed roads are exactly calibrated by √R_r
	// already). It is fit empirically on held-out days as
	// √mean(residual²/SD²), so the reported SDs match realized errors —
	// see experiments.FitSDScale. ≤ 0 means 1 (no scaling).
	SDScale float64
}

// DefaultOptions mirrors the experimental setup.
func DefaultOptions() Options {
	return Options{Epsilon: 1e-3, MaxIters: 200}
}

// WithInitial returns a copy of the options that warm-starts propagation
// from a previous run's result (see Options.Initial). prev is captured by
// value, so the caller's Result may be reused freely.
func (o Options) WithInitial(prev Result) Options {
	o.Initial = &prev
	return o
}

// Result is the inferred speed field plus convergence diagnostics.
type Result struct {
	Speeds     []float64 // v_i^t for every road
	Iterations int       // sweeps executed
	Converged  bool
	MaxDelta   float64 // last sweep's largest value change

	// Aborted is set when a context deadline/cancellation stopped the sweeps
	// early; Speeds then holds the best-so-far field (every completed sweep
	// only improves the slot likelihood, so a partial result is still the
	// best estimate available at the deadline).
	Aborted bool

	// Observed is a copy of the observation map the run pinned (road →
	// probed speed). A later run seeded from this result (WithInitial)
	// diffs its own observations against it to find the dirty frontier.
	Observed map[int]float64

	// WarmStarted reports that this run was seeded from a previous estimate
	// (Options.Initial); SweepsSaved is the seeding estimate's sweep count
	// minus this run's — how much the warm start amortized, measured against
	// the run that produced the seed (0 when warm-starting did not help).
	WarmStarted bool
	SweepsSaved int

	// SD is a per-road uncertainty proxy: the standard deviation implied by
	// the conditional precision of Eq. (18), 1/σ_i² + Σ_j 1/σ_ij², with a
	// neighbor's term discounted by that neighbor's own relative certainty
	// (an observed neighbor contributes full precision; a neighbor resting
	// at its prior contributes none beyond the prior). Probed roads get the
	// probe noise floor — exactly 0 without Options.ObsNoise, √R_r with it.
	// Non-observed roads are additionally multiplied by Options.SDScale.
	// Smaller is more trustworthy; the adaptive budgeting in package core
	// stops spending when the queried roads' SDs are low enough.
	SD []float64

	// Provenance labels, per road, where the served value came from:
	// ProvObserved (the road was probed and the value is the probe),
	// ProvFused (the value was propagated from the observations through at
	// least one sweep layer), or ProvPrior (no observation reaches the road;
	// the value is the periodicity prior μ). Degraded and partial answers
	// become interpretable: an interval on a ProvPrior road is the prior
	// band, not realtime signal.
	Provenance []Provenance
}

// Provenance labels one road's value source in a Result.
type Provenance uint8

const (
	// ProvPrior: no observation reaches the road; served value is μ.
	ProvPrior Provenance = iota
	// ProvFused: the value was propagated from observations (Eq. 18).
	ProvFused
	// ProvObserved: the road was probed; the value is the probe itself.
	ProvObserved
)

// String returns the wire label used by the HTTP envelope.
func (p Provenance) String() string {
	switch p {
	case ProvObserved:
		return "observed"
	case ProvFused:
		return "fused"
	default:
		return "prior"
	}
}

// Propagate runs GSP for one slot. observed maps road id → probed speed
// (the aggregated crowdsourced answers for R^c). When ctx is cancelled or its
// deadline passes, the sweep loop stops after the current sweep and the
// best-so-far field is returned with Result.Aborted set — a deadline is a
// degraded answer, not an error.
func Propagate(ctx context.Context, net *network.Network, view rtf.View, observed map[int]float64, opt Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := net.N()
	if len(view.Mu) != n {
		return Result{}, fmt.Errorf("gsp: view covers %d roads, network has %d", len(view.Mu), n)
	}
	if opt.Epsilon <= 0 {
		return Result{}, fmt.Errorf("gsp: ε must be positive, got %v", opt.Epsilon)
	}
	if opt.MaxIters <= 0 {
		return Result{}, fmt.Errorf("gsp: MaxIters must be positive, got %d", opt.MaxIters)
	}
	if opt.ObsNoise != nil && len(opt.ObsNoise) != n {
		return Result{}, fmt.Errorf("gsp: ObsNoise covers %d roads, network has %d", len(opt.ObsNoise), n)
	}
	// Observability wiring: metrics come from the options, the stage tracer
	// from the context. Latency needs a clock; the metrics clock wins, a
	// traced call falls back to the trace's clock.
	tr := obs.FromContext(ctx)
	m := opt.Metrics
	var clock obs.Clock
	if m != nil && m.Clock != nil {
		clock = m.Clock
	} else if tr != nil {
		clock = tr.Clock()
	}
	var start time.Time
	if clock != nil {
		start = clock.Now()
	}
	sources := make([]int, 0, len(observed))
	for r, v := range observed {
		if r < 0 || r >= n {
			return Result{}, fmt.Errorf("gsp: observed road %d out of range", r)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return Result{}, fmt.Errorf("gsp: observed speed %v on road %d invalid", v, r)
		}
		sources = append(sources, r)
	}
	// A fixed source order fixes the BFS layer composition and hence the
	// sweep order, making propagation bit-for-bit deterministic regardless
	// of map iteration order.
	sort.Ints(sources)

	// Initialization (Alg. 5 line 2), optionally from a previous field.
	speeds := make([]float64, n)
	warm := opt.Initial
	if warm != nil {
		if len(warm.Speeds) != n {
			return Result{}, fmt.Errorf("gsp: initial field covers %d roads, network has %d", len(warm.Speeds), n)
		}
		copy(speeds, warm.Speeds)
	} else {
		copy(speeds, view.Mu)
	}
	for r, v := range observed {
		speeds[r] = v
	}

	// BFT scheduling (Alg. 5 line 3), over the packed topology.
	csr := net.CSR()
	layers, _ := csr.Layers(sources)
	if warm != nil {
		// Roads no sweep can reach from the new observation set would keep
		// stale warm values forever (they are outside every layer); a cold
		// run leaves them at μ — the fixed point of an unobserved component.
		// Reset them so warm and cold agree there exactly.
		inSweep := make([]bool, n)
		for _, r := range sources {
			inSweep[r] = true
		}
		for _, layer := range layers {
			for _, i := range layer {
				inSweep[i] = true
			}
		}
		for i := 0; i < n; i++ {
			if !inSweep[i] {
				speeds[i] = view.Mu[i]
			}
		}
	}
	res := Result{Speeds: speeds, WarmStarted: warm != nil, Observed: copyObserved(observed)}
	res.Provenance = provenanceOf(n, sources, layers)
	eng := engine{view: view, speeds: speeds, csr: csr,
		obsNoise: opt.ObsNoise, sdScale: opt.SDScale}
	eng.prepareEdges()
	if len(layers) == 0 {
		// No propagation targets: everything is either probed or unreachable.
		res.Converged = true
		res.SD = eng.computeSD(observed, nil)
		observeGSP(m, tr, clock, start, &res, len(observed))
		return res, nil
	}

	// Phase 1 (warm runs only): delta propagation over the dirty frontier.
	// Only roads near a changed observation are updated; each sweep lets the
	// frontier grow one ring wherever a value actually moved by ≥ ε.
	if warm != nil {
		if active, any := eng.activate(warm.Observed, observed); any {
			for res.Iterations < opt.MaxIters {
				select {
				case <-ctx.Done():
					res.Aborted = true
				default:
				}
				if res.Aborted {
					break
				}
				maxDelta := eng.sweepFrontier(layers, active, opt.Epsilon)
				res.Iterations++
				res.MaxDelta = maxDelta
				if maxDelta < opt.Epsilon {
					break
				}
			}
		}
	}

	// Phase 2: full sweeps until the cold-run convergence criterion holds.
	// For cold runs this is the whole algorithm; for warm runs the first
	// full sweep doubles as verification that the quiesced frontier really
	// reached the global fixed point — if it did not, the loop simply keeps
	// sweeping, so warm and cold runs satisfy the identical ε criterion.
	for !res.Aborted && res.Iterations < opt.MaxIters {
		select {
		case <-ctx.Done():
			res.Aborted = true
		default:
		}
		if res.Aborted {
			break
		}
		maxDelta := eng.sweep(layers)
		res.Iterations++
		res.MaxDelta = maxDelta
		if maxDelta < opt.Epsilon {
			res.Converged = true
			break
		}
	}
	if warm != nil && res.Converged {
		if saved := warm.Iterations - res.Iterations; saved > 0 {
			res.SweepsSaved = saved
		}
	}
	res.SD = eng.computeSD(observed, layers)
	observeGSP(m, tr, clock, start, &res, len(observed))
	return res, nil
}

// provenanceOf labels every road by its value source for this run: the
// sources are observed, every road inside a BFS sweep layer is fused, and
// the rest (unreachable from any observation) sit at the prior.
func provenanceOf(n int, sources []int, layers [][]int) []Provenance {
	prov := make([]Provenance, n) // zero value: ProvPrior
	for _, layer := range layers {
		for _, i := range layer {
			prov[i] = ProvFused
		}
	}
	for _, r := range sources {
		prov[r] = ProvObserved
	}
	return prov
}

// copyObserved snapshots the observation map into the Result so a later
// warm-started run can diff against it even if the caller mutates its map.
func copyObserved(observed map[int]float64) map[int]float64 {
	out := make(map[int]float64, len(observed))
	for r, v := range observed {
		out[r] = v
	}
	return out
}

// observeGSP records one successful propagation into the metrics set and the
// stage tracer. Top-level (not a closure) so the uninstrumented hot path
// allocates nothing.
func observeGSP(m *obs.GSPMetrics, tr *obs.Trace, clock obs.Clock, start time.Time, res *Result, observed int) {
	if m != nil {
		m.Runs.Inc()
		m.Iterations.Add(res.Iterations)
		if res.Converged {
			m.Converged.Inc()
		}
		if res.Aborted {
			m.Aborted.Inc()
		}
		if res.WarmStarted {
			m.WarmStarts.Inc()
			m.SweepsSaved.Add(res.SweepsSaved)
		}
		if clock != nil {
			m.Latency.Observe(clock.Since(start))
		}
	}
	if tr != nil {
		tr.Span("gsp", start,
			slog.Int("iterations", res.Iterations),
			slog.Bool("converged", res.Converged),
			slog.Bool("aborted", res.Aborted),
			slog.Bool("warm", res.WarmStarted),
			slog.Int("observed", observed))
	}
}

// engine holds the propagation state of one run. The topology is consumed exclusively through the network's packed CSR view:
// the pairwise Gaussian parameters of Eq. (2) are materialized once per run
// into flat half-edge arrays (emu, einvq), so the inner update loop is pure
// indexed float64 arithmetic — no map[int64]int edge lookup, no per-neighbor
// EdgeParams call, zero allocation per sweep.
type engine struct {
	view   rtf.View
	speeds []float64
	csr    *graph.CSR

	// emu[k] = μ_ij and einvq[k] = 1/σ_ij² for half-edge k = (i→j),
	// aligned with the CSR half-edge array.
	emu   []float64
	einvq []float64

	// obsNoise/sdScale mirror Options.ObsNoise / Options.SDScale (nil / ≤0
	// when unset); consumed only by computeSD.
	obsNoise []float64
	sdScale  float64
}

// prepareEdges materializes Eq. (2)'s derived parameters per half-edge:
// μ_ij = μ_i − μ_j and σ_ij² = σ_i² + σ_j² − 2ρ_ij·σ_i·σ_j (floored like
// rtf.View.EdgeParams). One O(2M) pass replaces a map lookup per neighbor
// per sweep.
func (e *engine) prepareEdges() {
	c := e.csr
	n := c.N()
	total := c.NumHalfEdges()
	e.emu = make([]float64, total)
	e.einvq = make([]float64, total)
	const eps = 1e-6
	for i := 0; i < n; i++ {
		si := e.view.Sigma[i]
		mi := e.view.Mu[i]
		lo, hi := c.Row(i)
		for k := lo; k < hi; k++ {
			j, eid := c.At(k)
			rho := e.view.Rho[eid]
			sj := e.view.Sigma[j]
			q := si*si + sj*sj - 2*rho*si*sj
			if q < eps {
				q = eps
			}
			e.emu[k] = mi - e.view.Mu[j]
			e.einvq[k] = 1 / q
		}
	}
}

// update applies Eq. (18) to road i and returns |Δv|.
func (e *engine) update(i int) float64 {
	si := e.view.Sigma[i]
	num := e.view.Mu[i] / (si * si)
	den := 1 / (si * si)
	lo, hi := e.csr.Row(i)
	for k := lo; k < hi; k++ {
		j, _ := e.csr.At(k)
		iq := e.einvq[k]
		num += (e.speeds[j] + e.emu[k]) * iq
		den += iq
	}
	v := num / den
	if v < 0 {
		v = 0 // speeds are physical; Eq. (3) integrates over v ≥ 0
	}
	d := math.Abs(v - e.speeds[i])
	e.speeds[i] = v
	return d
}

// computeSD propagates a certainty field outward from the observations and
// converts it to per-road standard deviations (see Result.SD). certainty is
// 1 for probed roads and, elsewhere, the fraction of conditional precision
// in excess of the prior: c_i = 1 − prior-variance-ratio. It reuses the
// engine's half-edge 1/σ_ij² array.
//
// With heteroscedastic observation noise (engine.obsNoise), a probed road r
// serves the probe itself, so its honest SD is exactly √R_r, and the
// certainty it lends its neighbors is the posterior precision fraction of a
// noisy measurement, σ_r²/(σ_r²+R_r) — R_r = 0 degenerates to the exact
// pin (certainty 1, SD 0). Non-observed roads are scaled by sdScale, the
// empirical calibration factor (observed roads are calibrated already).
func (e *engine) computeSD(observed map[int]float64, layers [][]int) []float64 {
	n := e.csr.N()
	scale := e.sdScale
	if scale <= 0 {
		scale = 1
	}
	certainty := make([]float64, n)
	sd := make([]float64, n)
	for i := 0; i < n; i++ {
		sd[i] = e.view.Sigma[i]
	}
	for r := range observed {
		var noise float64
		if e.obsNoise != nil && e.obsNoise[r] > 0 {
			noise = e.obsNoise[r]
		}
		if noise > 0 {
			s2 := e.view.Sigma[r] * e.view.Sigma[r]
			certainty[r] = s2 / (s2 + noise)
			sd[r] = math.Sqrt(noise)
		} else {
			certainty[r] = 1
			sd[r] = 0
		}
	}
	const (
		sweeps = 20
		tol    = 1e-4
	)
	for s := 0; s < sweeps; s++ {
		var maxDelta float64
		for _, layer := range layers {
			for _, i := range layer {
				si := e.view.Sigma[i]
				precision := 1 / (si * si)
				lo, hi := e.csr.Row(i)
				for k := lo; k < hi; k++ {
					j, _ := e.csr.At(k)
					precision += certainty[j] * e.einvq[k]
				}
				variance := 1 / precision
				c := 1 - variance/(si*si)
				if c < 0 {
					c = 0
				}
				if d := math.Abs(c - certainty[i]); d > maxDelta {
					maxDelta = d
				}
				certainty[i] = c
				sd[i] = scale * math.Sqrt(variance)
			}
		}
		if maxDelta < tol {
			break
		}
	}
	return sd
}

// activate seeds the dirty frontier of a warm-started run: every road whose
// observation appeared, changed, or disappeared relative to the previous run
// is marked, along with its immediate neighbors (their coordinate maximizers
// shift when a pinned value moves or a pin is lifted). prev == nil means the
// seeding result carries no observation provenance; every current observation
// is then treated as changed. Marks on currently-pinned roads are harmless —
// sweeps iterate the BFS layers, which exclude the sources.
func (e *engine) activate(prev, cur map[int]float64) (active []bool, any bool) {
	n := len(e.speeds)
	active = make([]bool, n)
	mark := func(r int) {
		if r < 0 || r >= n {
			return
		}
		if !active[r] {
			active[r] = true
			any = true
		}
		for _, nb := range e.csr.Neighbors(r) {
			if j := int(nb); !active[j] {
				active[j] = true
				any = true
			}
		}
	}
	if prev == nil {
		for r := range cur {
			mark(r)
		}
		return active, any
	}
	for r, v := range cur {
		if pv, ok := prev[r]; !ok || pv != v {
			mark(r)
		}
	}
	for r := range prev {
		if _, ok := cur[r]; !ok {
			mark(r)
		}
	}
	return active, any
}

// sweepFrontier updates only the active roads, in the usual layer order, and
// grows the frontier: a road that moved by at least eps activates its
// neighbors for subsequent sweeps — the move is large enough to shift their
// maximizers past the convergence threshold. Returns the largest change.
func (e *engine) sweepFrontier(layers [][]int, active []bool, eps float64) float64 {
	var maxDelta float64
	for _, layer := range layers {
		for _, i := range layer {
			if !active[i] {
				continue
			}
			d := e.update(i)
			if d > maxDelta {
				maxDelta = d
			}
			if d >= eps {
				for _, nb := range e.csr.Neighbors(i) {
					active[int(nb)] = true
				}
			}
		}
	}
	return maxDelta
}

// sweep updates every road of every layer once, in layer order, and returns
// the largest change.
func (e *engine) sweep(layers [][]int) float64 {
	var maxDelta float64
	for _, layer := range layers {
		for _, i := range layer {
			if d := e.update(i); d > maxDelta {
				maxDelta = d
			}
		}
	}
	return maxDelta
}
