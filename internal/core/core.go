// Package core assembles the CrowdRTSE system (§III-B): the offline stage
// trains the RTF graphical model from historical records; the online stage
// answers a realtime speed query in three steps — select the crowdsourced
// roads (OCS), probe them through the worker pool, and propagate the probed
// speeds over the network (GSP).
//
// core serves the two steps that need no crowd. System and shard.Engine
// answer the same two ctx-first calls, Select (OCS) and Estimate (GSP), and
// the serving Batcher answers them for the HTTP routes. The probe step
// belongs to the crowd: a server takes the workers' reports over HTTP, and
// package sim simulates the crowd for the paper's query loop.
//
// Typical use:
//
//	sys, err := core.Train(net, history, core.DefaultConfig())
//	sol, err := sys.Select(ctx, core.SelectRequest{
//		Slot: slot, Roads: queried, WorkerRoads: pool.Roads(),
//		Budget: 60, Theta: 0.92,
//	})
//	// ...the workers on sol.Roads report their speeds...
//	res, err := sys.Estimate(ctx, slot, reports)
//	speeds := res.Speeds // road → estimated realtime speed
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/corr"
	"repro/internal/gsp"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/ocs"
	"repro/internal/rtf"
	"repro/internal/tslot"
)

// Config controls the offline stage and the correlation cache. Every
// propagation runs gsp.DefaultOptions.
type Config struct {
	// Window pools ±Window neighboring slots when fitting RTF parameters
	// (moment fit: maximum-likelihood for μ and near-ML for σ, ρ).
	Window int
	// Transform selects the path-correlation transform (NegLog is exact).
	Transform corr.Transform
	// OracleCacheSlots bounds how many per-slot correlation oracles stay
	// resident (LRU, most recent first). ≤0 selects DefaultOracleCacheSlots
	// (288 — a full day of slots).
	OracleCacheSlots int
	// OracleCacheBytes optionally bounds the total resident correlation-row
	// bytes across cached oracles; 0 disables the byte budget. The budget is
	// re-enforced on every oracle access because rows accrete lazily.
	OracleCacheBytes int64
}

// DefaultConfig returns the configuration used throughout the experiments.
func DefaultConfig() Config {
	return Config{
		Window:           1,
		Transform:        corr.NegLog,
		OracleCacheSlots: DefaultOracleCacheSlots,
	}
}

// modelState is the immutable unit of the RCU scheme: one fitted model plus
// the per-slot oracle LRU derived from it. A query pins exactly one
// modelState for its whole lifetime; SwapModel publishes a fresh state (new
// model, empty oracle cache) with a single atomic pointer store. In-flight
// queries keep the state they pinned — and its oracles — until they finish,
// so a swap can never mix parameters from two model generations inside one
// query, and stale correlation rows can never serve a post-swap query.
type modelState struct {
	model   *rtf.Model
	oracles *oracleCache
	version uint64 // monotonically increasing swap generation, 1-based
}

// System is a trained CrowdRTSE instance, safe for concurrent queries. The
// per-slot correlation oracles live in a bounded LRU (see oracleCache); the
// hot row-lookup path inside each oracle is lock-free. The model itself is
// hot-swappable (SwapModel) with RCU semantics.
type System struct {
	net *network.Network
	cfg Config

	state atomic.Pointer[modelState]
	swaps atomic.Uint64

	// obsPipe is the attached instrument set (Instrument/Obs); nil means
	// uninstrumented, in which case Obs() hands out the shared discard set.
	obsPipe atomic.Pointer[obs.Pipeline]

	// retired accumulates the cache counters of states replaced by swaps so
	// OracleCacheReport stays monotonic across model generations.
	retired retiredCounters

	// noiseHolder carries the heteroscedastic uncertainty knobs (PR 9):
	// the per-road observation-noise vector and the SD calibration scale.
	noiseHolder
}

func (s *System) current() *modelState { return s.state.Load() }

// newState builds a modelState around model with a cold oracle cache.
func (s *System) newState(model *rtf.Model, version uint64) *modelState {
	return &modelState{
		model:   model,
		oracles: newOracleCache(s.cfg.OracleCacheSlots, s.cfg.OracleCacheBytes),
		version: version,
	}
}

// Train runs the offline stage: fit RTF on the history and prepare the
// correlation machinery.
func Train(net *network.Network, h rtf.History, cfg Config) (*System, error) {
	if net == nil {
		return nil, fmt.Errorf("core: nil network")
	}
	model := rtf.New(net)
	if err := rtf.FitMoments(model, h, cfg.Window); err != nil {
		return nil, fmt.Errorf("core: offline fit: %w", err)
	}
	s := &System{net: net, cfg: cfg}
	s.state.Store(s.newState(model, 1))
	return s, nil
}

// NewFromModel wraps an existing fitted model (e.g. loaded from disk) into a
// queryable system.
func NewFromModel(net *network.Network, model *rtf.Model, cfg Config) (*System, error) {
	if net == nil || model == nil {
		return nil, fmt.Errorf("core: nil network or model")
	}
	if model.N() != net.N() {
		return nil, fmt.Errorf("core: model covers %d roads, network has %d", model.N(), net.N())
	}
	s := &System{net: net, cfg: cfg}
	s.state.Store(s.newState(model, 1))
	return s, nil
}

// Network returns the system's road network.
func (s *System) Network() *network.Network { return s.net }

// Config returns the configuration the system was built with.
func (s *System) Config() Config { return s.cfg }

// Model returns the currently serving RTF model.
func (s *System) Model() *rtf.Model { return s.current().model }

// ModelVersion returns the swap generation of the serving model (1 for the
// model the system was constructed with, +1 per successful SwapModel).
func (s *System) ModelVersion() uint64 { return s.current().version }

// Swaps returns how many hot-swaps the system has performed.
func (s *System) Swaps() uint64 { return s.swaps.Load() }

// SwapModel atomically replaces the serving model (RCU): the new model gets
// a fresh, empty per-slot oracle LRU — flushing every correlation row derived
// from the old parameters — and becomes visible to all subsequent queries
// with one atomic pointer store. Queries already in flight finish on the old
// model and its oracles. prewarm optionally pre-builds the oracles of the
// given slots into the new cache before publication, so the first queries
// after the swap skip the cold-start; their rows still compute lazily
// (building an oracle is cheap, rows are the expensive part and accrete
// through the usual singleflight path).
//
// It returns the old and new model versions. The old model is untouched and
// remains valid for as long as callers hold references to it.
func (s *System) SwapModel(model *rtf.Model, prewarm []tslot.Slot) (oldVersion, newVersion uint64, err error) {
	if model == nil {
		return 0, 0, fmt.Errorf("core: swap to nil model")
	}
	if model.N() != s.net.N() {
		return 0, 0, fmt.Errorf("core: swap model covers %d roads, network has %d", model.N(), s.net.N())
	}
	for {
		old := s.current()
		next := s.newState(model, old.version+1)
		for _, t := range prewarm {
			if t.Valid() {
				s.oracleAt(next, t)
			}
		}
		if s.state.CompareAndSwap(old, next) {
			s.retired.fold(old.oracles.counters())
			s.swaps.Add(1)
			return old.version, next.version, nil
		}
	}
}

// oracleAt returns st's cached correlation oracle for slot t, admitting it
// into st's LRU. The oracle is built from st's model, so two states never
// share correlation rows.
func (s *System) oracleAt(st *modelState, t tslot.Slot) *corr.Oracle {
	return st.oracles.get(t, func() *corr.Oracle {
		pipe := s.Obs()
		return corr.NewOracle(s.net.Graph(), st.model.At(t), s.cfg.Transform,
			corr.WithCSR(s.net.CSR()),
			corr.WithRowObs(pipe.CorrRowCompute, pipe.Clock))
	})
}

// Oracle returns the (cached) correlation oracle for slot t of the currently
// serving model.
func (s *System) Oracle(t tslot.Slot) *corr.Oracle {
	return s.oracleAt(s.current(), t)
}

// OracleCacheReport returns the aggregated correlation-cache counters:
// hit/miss/inflight totals (including retired counters of evicted oracles
// and of caches flushed by model swaps), resident rows and bytes, and
// eviction count. The server exports it through /v1/healthz.
func (s *System) OracleCacheReport() CacheReport {
	r := s.current().oracles.report()
	s.retired.addTo(&r)
	if total := r.Hits + r.Misses; total > 0 {
		r.HitRate = float64(r.Hits) / float64(total)
	}
	return r
}

// Selector chooses the crowdsourced-road selection algorithm.
type Selector int

const (
	// Hybrid is Hybrid-Greedy (Alg. 4), the paper's recommended solver.
	Hybrid Selector = iota
	// Ratio is Ratio-Greedy alone (Alg. 2).
	Ratio
	// Objective is Objective-Greedy alone (Alg. 3).
	Objective
	// RandomSel is the randomized baseline.
	RandomSel
	// VarMin is Hybrid-Greedy under the variance-minimizing objective
	// (ocs.ObjVarianceMin): spend the probe budget where it shrinks the
	// queried roads' posterior variance most, instead of where the
	// periodicity-weighted correlation is highest.
	VarMin
	// RouteVar is Hybrid-Greedy under the route-aware weighted-variance
	// objective (ocs.ObjRouteVar): each queried road carries a travel-time
	// sensitivity weight from a planned route, so the budget goes where
	// conditioning most shrinks the route's ETA variance. Requires
	// SelectRequest.Weights.
	RouteVar
)

// String returns the selector name as used in the paper's figures.
func (s Selector) String() string {
	switch s {
	case Hybrid:
		return "Hybrid"
	case Ratio:
		return "Ratio"
	case Objective:
		return "OBJ"
	case RandomSel:
		return "Rand"
	case VarMin:
		return "VarMin"
	case RouteVar:
		return "RouteVar"
	default:
		return fmt.Sprintf("Selector(%d)", int(s))
	}
}

// ParseSelector is the inverse of String. It also accepts the long names
// Objective, Random and VarianceMin, and "" for Hybrid, so the CLI flag and
// the HTTP selector fields share one vocabulary.
func ParseSelector(name string) (Selector, error) {
	switch name {
	case "", "Hybrid":
		return Hybrid, nil
	case "Ratio":
		return Ratio, nil
	case "OBJ", "Objective":
		return Objective, nil
	case "Rand", "Random":
		return RandomSel, nil
	case "VarMin", "VarianceMin":
		return VarMin, nil
	case "RouteVar":
		return RouteVar, nil
	default:
		return 0, fmt.Errorf("unknown selector %q", name)
	}
}

// SelectRequest is one OCS road-selection request.
type SelectRequest struct {
	Slot  tslot.Slot
	Roads []int // R^q, the queried roads
	// WorkerRoads is R^w, the roads currently covered by at least one
	// worker (Pool.Roads()).
	WorkerRoads []int
	Budget      int // K
	Theta       float64
	// Selector picks the OCS algorithm (default Hybrid).
	Selector Selector
	// Seed drives the Random selector.
	Seed int64
	// Weights is the per-road importance vector of the RouteVar selector
	// (road-id indexed, length N; see ocs.Problem.Weights). Ignored by the
	// other selectors.
	Weights []float64
}

// Select solves OCS for the request on the slot oracle's cached query rows.
// Before the solve it creates the missing ones through the parallel warm
// pool, each out to its first depth; the solve then searches each row only
// as deep as its picks and its value need (package ocs), so concurrent
// queries sharing a slot find the rows resident and extend them instead of
// recomputing them. A request that fails validation computes no row. A
// trace attached to ctx receives an "ocs_select" span.
func (s *System) Select(ctx context.Context, req SelectRequest) (ocs.Solution, error) {
	return s.selectState(ctx, s.current(), req)
}

// selectState is Select pinned to one model state, so a query's OCS solve
// and GSP propagation cannot straddle a hot-swap. The solve counts into the
// attached instrument set via ocs.Problem.Metrics.
func (s *System) selectState(ctx context.Context, st *modelState, req SelectRequest) (ocs.Solution, error) {
	t, sel := req.Slot, req.Selector
	if !t.Valid() {
		return ocs.Solution{}, fmt.Errorf("core: invalid slot %d", t)
	}
	tr := obs.FromContext(ctx)
	var spanStart time.Time
	if tr != nil {
		spanStart = tr.Clock().Now()
	}
	oracle := s.oracleAt(st, t)
	p := &ocs.Problem{
		Query:   req.Roads,
		Workers: req.WorkerRoads,
		Costs:   s.net.Costs(),
		Budget:  req.Budget,
		Theta:   req.Theta,
		Sigma:   st.model.At(t).Sigma,
		Oracle:  oracle,
		Metrics: &s.Obs().OCS,
	}
	switch sel {
	case Hybrid, Ratio, Objective, RandomSel:
	case VarMin:
		p.Mode = ocs.ObjVarianceMin
	case RouteVar:
		p.Mode = ocs.ObjRouteVar
		p.Weights = req.Weights
	default:
		return ocs.Solution{}, fmt.Errorf("core: unknown selector %d", sel)
	}
	if err := p.Validate(); err != nil {
		return ocs.Solution{}, err
	}
	oracle.Warm(p.Query)
	var sol ocs.Solution
	var err error
	switch sel {
	case Ratio:
		sol, err = ocs.RatioGreedy(p)
	case Objective:
		sol, err = ocs.ObjectiveGreedy(p)
	case RandomSel:
		sol, err = ocs.Random(p, rand.New(rand.NewSource(req.Seed)))
	default: // Hybrid and its VarMin and RouteVar objectives
		sol, err = ocs.HybridGreedy(p)
	}
	if err == nil && tr != nil {
		tr.Span("ocs_select", spanStart, spanAttrsOCS(&sol)...)
	}
	return sol, err
}

// Estimate runs GSP at slot t from already-collected observations,
// returning the full-network speed field; Query runs the complete
// select-probe-propagate pipeline. When ctx expires, GSP stops sweeping and
// returns the best-so-far field with Result.Aborted set.
func (s *System) Estimate(ctx context.Context, t tslot.Slot, observed map[int]float64) (gsp.Result, error) {
	return s.estimateState(ctx, s.current(), t, observed, nil)
}

// estimateState is Estimate pinned to one model state, with an optional
// warm-start seed: when initial is a previous full-network estimate, GSP
// runs the incremental dirty-frontier engine (gsp.Options.WithInitial)
// instead of a cold pass. The propagation counts into the attached
// instrument set and records a "gsp" span on any trace carried by ctx.
func (s *System) estimateState(ctx context.Context, st *modelState, t tslot.Slot, observed map[int]float64, initial *gsp.Result) (gsp.Result, error) {
	opt := gsp.DefaultOptions()
	opt.Metrics = &s.Obs().GSP
	// Thread the heteroscedastic uncertainty knobs (PR 9) into every run:
	// per-road observation-noise variances and the empirical SD calibration.
	opt.ObsNoise = s.ObsNoise()
	opt.SDScale = s.SDScale()
	if initial != nil && len(initial.Speeds) == s.net.N() {
		opt = opt.WithInitial(*initial)
	}
	return gsp.Propagate(ctx, s.net, st.model.At(t), observed, opt)
}

// GSPEstimator adapts the system to the baselines.Estimator interface for
// one slot, so GSP can be compared head-to-head with LASSO/GRMC/Per.
type GSPEstimator struct {
	sys  *System
	slot tslot.Slot
}

// NewGSPEstimator returns the adapter for slot t.
func (s *System) NewGSPEstimator(t tslot.Slot) *GSPEstimator {
	return &GSPEstimator{sys: s, slot: t}
}

// Name implements baselines.Estimator.
func (g *GSPEstimator) Name() string { return "GSP" }

// Estimate implements baselines.Estimator.
func (g *GSPEstimator) Estimate(observed map[int]float64) ([]float64, error) {
	res, err := g.sys.Estimate(context.TODO(), g.slot, observed)
	if err != nil {
		return nil, err
	}
	return res.Speeds, nil
}
