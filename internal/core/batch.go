// Batch/coalescing estimation engine (PR 5). At city scale many concurrent
// queries land in the same 5-minute slot and would redundantly re-run the
// identical oracle warming, OCS rounds and full-network GSP sweeps. The
// Batcher amortizes that redundancy structurally:
//
//   - Query coalesces concurrent same-slot requests into one shared pass —
//     one oracle Warm, one worker-set snapshot, a merged OCS probe set under
//     a pooled budget, one GSP run sliced back per caller.
//   - Estimate singleflights identical concurrent estimate requests and
//     warm-starts every pass from the slot's previous estimate
//     (gsp.Options.WithInitial), so re-estimating after a handful of new
//     reports sweeps only the dirty frontier.
//   - Subscription turns a query into a standing one: it re-estimates
//     incrementally whenever the observation source (stream.Collector)
//     received new reports for the slot.
//
// Everything counts into the attached obs pipeline: shared passes
// (crowdrtse_batch_groups_total), members folded into them, coalesced
// queries, warm starts and warm-start sweeps saved.
package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/gsp"
	"repro/internal/ocs"
	"repro/internal/temporal"
	"repro/internal/tslot"
)

// BatcherOptions configures the coalescing engine.
type BatcherOptions struct {
	// Window is how long the first query of a group waits for same-slot
	// companions before the shared pass fires (default 2ms). A shorter
	// window trades amortization for latency.
	Window time.Duration
	// MaxBatch fires the shared pass early once this many queries joined
	// (default 32).
	MaxBatch int
	// PrevSlots bounds the warm-start cache: how many slots keep their last
	// estimate around for seeding the next pass (default 64, LRU).
	PrevSlots int
}

const (
	defaultBatchWindow = 2 * time.Millisecond
	defaultMaxBatch    = 32
	defaultPrevSlots   = 64
)

// Batcher coalesces concurrent queries per slot and warm-starts GSP from the
// slot's previous estimate. Safe for concurrent use; construct one per
// System and share it.
type Batcher struct {
	sys *System
	opt BatcherOptions

	mu      sync.Mutex
	pending map[batchKey]*batchGroup

	flightMu sync.Mutex
	estimate map[uint64]*flight[gsp.Result]
	selects  map[uint64]*flight[ocs.Solution]
	// slotFlight is the TierBatched singleflight: one in-flight propagation
	// per slot shared across requests with *different* observation sets.
	slotFlight map[tslot.Slot]*flight[gsp.Result]

	prevMu  sync.Mutex
	prev    map[tslot.Slot]*prevEntry
	prevSeq uint64

	// temporal is the attached cross-slot filter (PR 8), nil until
	// AttachTemporal. See temporal.go.
	temporalMu sync.Mutex
	temporal   *temporal.Filter

	// decayPhi/decayQ is the per-road-class default AR(1) table used to age
	// cached-tier variance when no temporal filter is attached (tiered.go),
	// built once on first use.
	decayOnce sync.Once
	decayPhi  []float64
	decayQ    []float64
}

// NewBatcher wraps a trained system in a coalescing engine.
func NewBatcher(sys *System, opt BatcherOptions) (*Batcher, error) {
	if sys == nil {
		return nil, fmt.Errorf("core: batcher over nil system")
	}
	if opt.Window <= 0 {
		opt.Window = defaultBatchWindow
	}
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = defaultMaxBatch
	}
	if opt.PrevSlots <= 0 {
		opt.PrevSlots = defaultPrevSlots
	}
	return &Batcher{
		sys:        sys,
		opt:        opt,
		pending:    make(map[batchKey]*batchGroup),
		estimate:   make(map[uint64]*flight[gsp.Result]),
		selects:    make(map[uint64]*flight[ocs.Solution]),
		slotFlight: make(map[tslot.Slot]*flight[gsp.Result]),
		prev:       make(map[tslot.Slot]*prevEntry),
	}, nil
}

// System returns the wrapped system.
func (b *Batcher) System() *System { return b.sys }

// ---------------------------------------------------------------------------
// Warm-start cache
// ---------------------------------------------------------------------------

type prevEntry struct {
	res  gsp.Result
	used uint64
	// at is when the entry was stored, on the obs pipeline's clock — the
	// cached tier's staleness measure (tiered.go).
	at time.Time
}

// lastResult returns the slot's most recent estimate for warm-starting, or
// nil when the slot was never estimated (or was evicted).
func (b *Batcher) lastResult(t tslot.Slot) *gsp.Result {
	res, _ := b.lastResultAt(t)
	return res
}

// lastResultAt is lastResult plus the entry's store timestamp.
func (b *Batcher) lastResultAt(t tslot.Slot) (*gsp.Result, time.Time) {
	b.prevMu.Lock()
	defer b.prevMu.Unlock()
	e := b.prev[t]
	if e == nil {
		return nil, time.Time{}
	}
	b.prevSeq++
	e.used = b.prevSeq
	res := e.res
	return &res, e.at
}

// storeResult records the slot's latest estimate, evicting the least
// recently used slot beyond the PrevSlots budget.
func (b *Batcher) storeResult(t tslot.Slot, res gsp.Result) {
	b.prevMu.Lock()
	defer b.prevMu.Unlock()
	b.prevSeq++
	b.prev[t] = &prevEntry{res: res, used: b.prevSeq, at: b.sys.Obs().Clock.Now()}
	for len(b.prev) > b.opt.PrevSlots {
		var victim tslot.Slot
		oldest := uint64(math.MaxUint64)
		for slot, e := range b.prev {
			if e.used < oldest {
				oldest, victim = e.used, slot
			}
		}
		delete(b.prev, victim)
	}
}

// ---------------------------------------------------------------------------
// Estimate: singleflight + incremental warm-start
// ---------------------------------------------------------------------------

type flight[T any] struct {
	done chan struct{}
	res  T
	err  error
}

// Estimate runs GSP at slot t from already-collected observations, like
// System.Estimate, with two amortizations: identical concurrent requests
// (same slot, same observations) share one propagation, and every pass is
// warm-started from the slot's previous estimate so only the dirty frontier
// around changed observations is swept. The result converges under the same
// ε criterion as a cold run.
func (b *Batcher) Estimate(ctx context.Context, t tslot.Slot, observed map[int]float64) (gsp.Result, error) {
	key := estimateDigest(t, observed)
	pipe := b.sys.Obs()
	b.flightMu.Lock()
	if f, ok := b.estimate[key]; ok {
		b.flightMu.Unlock()
		pipe.Batch.Coalesced.Inc()
		select {
		case <-f.done:
			return f.res, f.err
		case <-ctx.Done():
			return gsp.Result{}, ctx.Err()
		}
	}
	f := &flight[gsp.Result]{done: make(chan struct{})}
	b.estimate[key] = f
	b.flightMu.Unlock()

	f.res, f.err = b.sys.estimateState(ctx, b.sys.current(), t, observed, b.warmSeed(t))
	if f.err == nil {
		b.storeResult(t, f.res)
		b.feedTemporal(t, observed, &f.res)
	}
	b.flightMu.Lock()
	delete(b.estimate, key)
	b.flightMu.Unlock()
	close(f.done)
	return f.res, f.err
}

// Select solves OCS like System.Select, but identical concurrent requests
// (same slot, roads, workers, budget, θ, selector, seed) share one solve —
// the request-level singleflight in front of the oracle's row-level one.
func (b *Batcher) Select(ctx context.Context, req SelectRequest) (ocs.Solution, error) {
	key := selectDigest(req)
	pipe := b.sys.Obs()
	b.flightMu.Lock()
	if f, ok := b.selects[key]; ok {
		b.flightMu.Unlock()
		pipe.Batch.Coalesced.Inc()
		select {
		case <-f.done:
			return f.res, f.err
		case <-ctx.Done():
			return ocs.Solution{}, ctx.Err()
		}
	}
	f := &flight[ocs.Solution]{done: make(chan struct{})}
	b.selects[key] = f
	b.flightMu.Unlock()

	f.res, f.err = b.sys.Select(ctx, req)
	b.flightMu.Lock()
	delete(b.selects, key)
	b.flightMu.Unlock()
	close(f.done)
	return f.res, f.err
}

// ---------------------------------------------------------------------------
// Query: same-slot group coalescing
// ---------------------------------------------------------------------------

// batchKey groups coalescible queries: same slot, θ, selector and policy.
// Roads are unioned, the budget pools to the largest member's, and the
// leader's worker pool, probe configuration and seed drive the shared pass.
// The policy is part of the key because one pass answers every member: a
// three-round member folded into a one-round leader's pass would get the
// one-round answer.
type batchKey struct {
	slot tslot.Slot
	sel  Selector
	// thetaBits and targetBits are math.Float64bits of θ and the target SD
	// — float keys must not be NaN-odd.
	thetaBits, targetBits uint64
	stages, rounds        int
	retryPartial          bool
}

type batchGroup struct {
	reqs  []QueryRequest
	done  chan struct{}
	timer *time.Timer
	fired bool

	shared *QueryResult
	err    error
}

// Query answers one online query through the coalescing engine. Concurrent
// callers whose requests share (slot, θ, selector, policy) are folded into
// one shared pass of the query round loop (RunQuery): the queried road sets
// are unioned, the budget pools to the largest member's, OCS and the oracle
// warm run once per round, the crowd is probed once per round, and one
// (warm-started) GSP field is sliced back per caller — QuerySpeeds,
// QueryProvenance and MaxQuerySD cover exactly the caller's roads.
//
// Members of a group must share the worker pool and truth source (the
// leader's are used); the server guarantees this by construction. The
// returned result's Speeds/Probed/Selected are shared across the group and
// must be treated as read-only. ctx bounds only this caller's wait: an
// expired context abandons the shared pass for this caller without
// cancelling it for the group.
func (b *Batcher) Query(ctx context.Context, req QueryRequest) (*QueryResult, error) {
	if err := req.validate(b.sys.net.N()); err != nil {
		return nil, err
	}
	g := b.join(req)
	select {
	case <-g.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if g.err != nil {
		return nil, g.err
	}
	out := *g.shared
	out.answer(req.Roads)
	return &out, nil
}

// join adds req to the slot's pending group, creating it (and arming its
// window timer) when absent, and fires the group early at MaxBatch members.
func (b *Batcher) join(req QueryRequest) *batchGroup {
	key := batchKey{
		slot: req.Slot, sel: req.Selector,
		thetaBits: math.Float64bits(req.Theta), targetBits: math.Float64bits(req.TargetSD),
		stages: max(req.Stages, 1), rounds: max(req.Rounds, 1), retryPartial: req.RetryPartial,
	}
	b.mu.Lock()
	g := b.pending[key]
	if g == nil {
		g = &batchGroup{done: make(chan struct{})}
		b.pending[key] = g
		g.timer = time.AfterFunc(b.opt.Window, func() { b.fire(key, g) })
	}
	g.reqs = append(g.reqs, req)
	if len(g.reqs) >= b.opt.MaxBatch && !g.fired {
		g.fired = true
		delete(b.pending, key)
		b.mu.Unlock()
		g.timer.Stop()
		go b.run(g)
		return g
	}
	b.mu.Unlock()
	return g
}

// fire is the window-timer path: detach the group from pending and run it,
// unless the MaxBatch path already did.
func (b *Batcher) fire(key batchKey, g *batchGroup) {
	b.mu.Lock()
	if g.fired {
		b.mu.Unlock()
		return
	}
	g.fired = true
	if b.pending[key] == g {
		delete(b.pending, key)
	}
	b.mu.Unlock()
	b.run(g)
}

// run executes the shared pass for a fired group and wakes every member.
func (b *Batcher) run(g *batchGroup) {
	defer close(g.done)
	pipe := b.sys.Obs()
	pipe.Batch.Groups.Inc()
	pipe.Batch.Members.Add(len(g.reqs))
	if extra := len(g.reqs) - 1; extra > 0 {
		pipe.Batch.Coalesced.Add(extra)
	}

	merged := g.reqs[0] // leader: pool, probe config, campaign, truth, seed
	merged.Roads = unionRoads(g.reqs)
	for _, r := range g.reqs[1:] {
		if r.Budget > merged.Budget {
			merged.Budget = r.Budget
		}
	}

	// The shared pass runs under its own context: one member's deadline must
	// not cancel the answer every other member is waiting for.
	g.shared, g.err = RunQuery(context.Background(),
		pinned{b.sys, b.sys.current(), b.warmSeed(merged.Slot)}, merged)
	if g.err == nil {
		b.storeResult(merged.Slot, g.shared.Propagation)
		b.feedTemporal(merged.Slot, g.shared.Propagation.Observed, &g.shared.Propagation)
	}
}

// unionRoads merges the members' queried road sets, sorted ascending so the
// merged OCS problem is deterministic regardless of arrival order.
func unionRoads(reqs []QueryRequest) []int {
	seen := make(map[int]struct{})
	for _, r := range reqs {
		for _, road := range r.Roads {
			seen[road] = struct{}{}
		}
	}
	out := make([]int, 0, len(seen))
	for road := range seen {
		out = append(out, road)
	}
	sort.Ints(out)
	return out
}

// ---------------------------------------------------------------------------
// Request digests (singleflight keys)
// ---------------------------------------------------------------------------

func estimateDigest(t tslot.Slot, observed map[int]float64) uint64 {
	roads := make([]int, 0, len(observed))
	for r := range observed {
		roads = append(roads, r)
	}
	sort.Ints(roads)
	h := fnv.New64a()
	writeU64(h, uint64(t))
	for _, r := range roads {
		writeU64(h, uint64(r))
		writeU64(h, math.Float64bits(observed[r]))
	}
	return h.Sum64()
}

func selectDigest(req SelectRequest) uint64 {
	h := fnv.New64a()
	writeU64(h, uint64(req.Slot))
	writeU64(h, uint64(req.Budget))
	writeU64(h, math.Float64bits(req.Theta))
	writeU64(h, uint64(req.Selector))
	writeU64(h, uint64(req.Seed))
	writeU64(h, uint64(len(req.Roads)))
	for _, r := range req.Roads {
		writeU64(h, uint64(r))
	}
	for _, r := range req.WorkerRoads {
		writeU64(h, uint64(r))
	}
	writeU64(h, uint64(len(req.Weights)))
	for _, w := range req.Weights {
		writeU64(h, math.Float64bits(w))
	}
	return h.Sum64()
}

func writeU64(h interface{ Write([]byte) (int, error) }, v uint64) {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	_, _ = h.Write(buf[:])
}
