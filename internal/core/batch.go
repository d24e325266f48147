// The serving Batcher. Every HTTP route that selects or propagates runs
// through one Batcher, which amortizes the work concurrent requests share:
//
//   - identical concurrent Estimate calls (same slot, same observations,
//     same what-if overrides) share one propagation, and identical Select
//     calls share one OCS solve: one singleflight helper, keyed by an FNV
//     digest of the request;
//   - every propagation warm-starts from the slot's previous estimate
//     (gsp.Options.WithInitial), so re-estimating after a handful of new
//     reports sweeps only the dirty frontier;
//   - the batched QoS tier shares one propagation per slot (tiered.go).
//
// The Batcher also owns the evidence those runs read: the report collector
// and the cross-slot filter, which only Report writes and every serving
// read reaches through one read of a slot's aggregates (temporal.go).
//
// Callers served by another caller's run count into
// crowdrtse_coalesced_queries_total; warm starts and the sweeps they saved
// count into the GSP instruments.
package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gsp"
	"repro/internal/network"
	"repro/internal/ocs"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/tslot"
)

// prevSlots bounds the warm-start LRU: how many slots keep their last
// estimate for seeding the next pass.
const prevSlots = 64

// Backend is what a Batcher serves through: the System itself, or a
// graph-partitioned shard.Engine built from it. Pin returns an engine fixed
// to one model generation, in the System's road ids, whose propagations
// warm-start from initial (nil runs cold).
type Backend interface {
	Pin(initial *gsp.Result) Engine
}

// Engine selects (OCS) and propagates (GSP) in one road numbering, fixed to
// one model generation: what a Backend's Pin returns (System.Pin,
// shard.Engine.Pin). The Batcher selects and propagates only through it.
type Engine interface {
	Select(ctx context.Context, req SelectRequest) (ocs.Solution, error)
	Estimate(ctx context.Context, t tslot.Slot, observed map[int]float64) (gsp.Result, error)
}

// Pin implements Backend: the returned engine selects and propagates on the
// serving model generation even if a hot-swap lands while it is in use
// (RCU — the swap retires the state only after the engine is dropped), and
// warm-starts every propagation from initial when it is a previous
// full-network field.
func (s *System) Pin(initial *gsp.Result) Engine {
	return pinned{s, s.current(), initial}
}

// pinned is a System fixed to one model state, with an optional warm-start
// seed for its propagations.
type pinned struct {
	sys     *System
	st      *modelState
	initial *gsp.Result
}

func (p pinned) Select(ctx context.Context, req SelectRequest) (ocs.Solution, error) {
	return p.sys.selectState(ctx, p.st, req)
}

func (p pinned) Estimate(ctx context.Context, t tslot.Slot, observed map[int]float64) (gsp.Result, error) {
	return p.sys.estimateState(ctx, p.st, t, observed, p.initial)
}

// Batcher shares concurrent identical work and warm-starts GSP from the
// slot's previous estimate. Safe for concurrent use; construct one per
// System and share it.
type Batcher struct {
	sys *System
	// backend runs every selection and propagation (sys unless SetBackend).
	backend Backend

	flightMu sync.Mutex
	estimate map[uint64]*flight[gsp.Result]
	selects  map[uint64]*flight[ocs.Solution]
	// slotFlight is the TierBatched singleflight: one in-flight propagation
	// per slot shared across requests with *different* observation sets.
	slotFlight map[tslot.Slot]*flight[gsp.Result]

	prevMu  sync.Mutex
	prev    map[tslot.Slot]*prevEntry
	prevSeq uint64

	// collector holds the crowd reports and temporal the cross-slot filter;
	// walkMu serializes Report, which alone moves the filter, ends a slot's
	// reports and stores began: when the filter's slot began by the
	// collector's clock, as far as the reports show it (nil before the
	// first). Reads load began without the lock (temporal.go).
	collector *stream.Collector
	walkMu    sync.Mutex
	temporal  *temporal.Filter
	began     atomic.Pointer[time.Time]
}

// NewBatcher wraps a trained system in the serving Batcher, with an empty
// report collector and a filter at slot 0 with the default AR(1) parameters
// of each road's class. Both count into the system's instruments.
func NewBatcher(sys *System) (*Batcher, error) {
	if sys == nil {
		return nil, fmt.Errorf("core: batcher over nil system")
	}
	classes := make([]network.Class, sys.net.N())
	for i := range classes {
		classes[i] = sys.net.Road(i).Class
	}
	filt, err := temporal.New(sys.Model(), 0, temporal.DefaultParams(), classes,
		temporal.Options{Metrics: sys.Obs().Temporal})
	if err != nil {
		return nil, err
	}
	col := stream.NewCollector(sys.net.N())
	col.SetMetrics(sys.Obs().Stream)
	return &Batcher{
		sys:        sys,
		backend:    sys,
		estimate:   make(map[uint64]*flight[gsp.Result]),
		selects:    make(map[uint64]*flight[ocs.Solution]),
		slotFlight: make(map[tslot.Slot]*flight[gsp.Result]),
		prev:       make(map[tslot.Slot]*prevEntry),
		collector:  col,
		temporal:   filt,
	}, nil
}

// System returns the wrapped system.
func (b *Batcher) System() *System { return b.sys }

// SetBackend makes the batcher select and propagate through be, which must
// work in the wrapped System's road ids and model (a shard.Engine built from
// it). Everything else — singleflight, the warm-start LRU, the tiers, the
// collector, the temporal filter and routes — stays in the batcher. Call it
// before the batcher serves.
func (b *Batcher) SetBackend(be Backend) { b.backend = be }

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
// recently used slot beyond the prevSlots budget.
func (b *Batcher) storeResult(t tslot.Slot, res gsp.Result) {
	b.prevMu.Lock()
	defer b.prevMu.Unlock()
	b.prevSeq++
	b.prev[t] = &prevEntry{res: res, used: b.prevSeq, at: b.sys.Obs().Clock.Now()}
	for len(b.prev) > prevSlots {
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
// Singleflight + incremental warm-start
// ---------------------------------------------------------------------------

// flight is one in-flight run its followers wait on.
type flight[T any] struct {
	done chan struct{}
	res  T
	err  error
}

// singleflight shares one run of fn among the concurrent callers of one key
// in flights. The first caller leads: it runs fn under its own ctx and
// publishes the answer. A caller arriving while the leader runs counts one
// Coalesced and waits; its ctx bounds only its wait. GSP answers an expired
// context with its best-so-far field, so an answer that cut reports short
// belongs to the leader's deadline alone: a follower whose ctx is still live
// goes back to the flight instead of taking it, so the live followers of one
// aborted leader share the next run rather than each starting one. A nil
// cut shares every answer.
func singleflight[K comparable, T any](ctx context.Context, b *Batcher, flights map[K]*flight[T], key K, cut func(T) bool, fn func() (T, error)) (T, error) {
	for joined := false; ; joined = true {
		b.flightMu.Lock()
		f, ok := flights[key]
		if !ok {
			f = &flight[T]{done: make(chan struct{})}
			flights[key] = f
			b.flightMu.Unlock()

			f.res, f.err = fn()
			b.flightMu.Lock()
			delete(flights, key)
			b.flightMu.Unlock()
			close(f.done)
			return f.res, f.err
		}
		b.flightMu.Unlock()
		if !joined {
			b.sys.Obs().Batch.Coalesced.Inc()
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
		if cut == nil || !cut(f.res) || ctx.Err() != nil {
			return f.res, f.err
		}
	}
}

// aborted reports a field GSP cut short at its caller's deadline.
func aborted(res gsp.Result) bool { return res.Aborted }

// Estimate runs GSP at slot t from already-collected observations, like
// System.Estimate, with two amortizations: identical concurrent requests
// (same slot, same observations) share one propagation, and every pass is
// warm-started from the slot's previous estimate so only the dirty frontier
// around changed observations is swept. The result converges under the same
// ε criterion as a cold run.
func (b *Batcher) Estimate(ctx context.Context, t tslot.Slot, observed map[int]float64) (gsp.Result, error) {
	return b.estimateWhatIf(ctx, t, observed, nil)
}

// estimateWhatIf is Estimate over observed with a request's what-if
// overrides on top, which replace or extend the aggregates GSP sees and are
// part of the flight's key. A field that ran to the end over no overrides
// becomes the slot's warm seed and cached-tier answer. A field that saw an
// override, or was aborted at its caller's deadline, is its callers' alone.
func (b *Batcher) estimateWhatIf(ctx context.Context, t tslot.Slot, observed, overrides map[int]float64) (gsp.Result, error) {
	return singleflight(ctx, b, b.estimate, estimateDigest(t, observed, overrides), aborted, func() (gsp.Result, error) {
		res, err := b.backend.Pin(b.warmSeed(t)).Estimate(ctx, t, withOverrides(observed, overrides))
		if err == nil && !res.Aborted && len(overrides) == 0 {
			b.storeResult(t, res)
		}
		return res, err
	})
}

// withOverrides returns observed with the overrides applied, on a copy when
// there are any.
func withOverrides(observed, overrides map[int]float64) map[int]float64 {
	if len(overrides) == 0 {
		return observed
	}
	out := make(map[int]float64, len(observed)+len(overrides))
	for _, m := range []map[int]float64{observed, overrides} {
		for r, v := range m {
			out[r] = v
		}
	}
	return out
}

// Select solves OCS like System.Select, but identical concurrent requests
// (same slot, roads, workers, budget, θ, selector, seed) share one solve —
// the request-level singleflight in front of the oracle's row-level one.
func (b *Batcher) Select(ctx context.Context, req SelectRequest) (ocs.Solution, error) {
	return singleflight(ctx, b, b.selects, selectDigest(req), nil, func() (ocs.Solution, error) {
		return b.backend.Pin(nil).Select(ctx, req)
	})
}

// ---------------------------------------------------------------------------
// Request digests (singleflight keys)
// ---------------------------------------------------------------------------

// estimateDigest keys an estimate by its slot, its observations and its
// overrides, each map length-prefixed so the two never alias.
func estimateDigest(t tslot.Slot, observed, overrides map[int]float64) uint64 {
	h := fnv.New64a()
	writeU64(h, uint64(t))
	for _, m := range []map[int]float64{observed, overrides} {
		roads := make([]int, 0, len(m))
		for r := range m {
			roads = append(roads, r)
		}
		sort.Ints(roads)
		writeU64(h, uint64(len(roads)))
		for _, r := range roads {
			writeU64(h, uint64(r))
			writeU64(h, math.Float64bits(m[r]))
		}
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
