// The evidence ledger. The Batcher owns the report collector and the
// cross-slot state-space filter (package temporal), and Report is the
// only call that moves the filter: a report that opens a slot up to
// maxTemporalAdvance slots ahead walks the filter there, fusing each slot it
// leaves exactly once from that slot's robust aggregates. Estimates,
// forecasts and routes only read the filter: when a slot's warm-start LRU
// entry is missing, the filtered posterior, predicted forward to the slot,
// stands in as the GSP seed, and routes and /v1/forecast fuse the current,
// not-yet-fused slot into a snapshot of it.
package core

import (
	"fmt"

	"repro/internal/gsp"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/tslot"
)

// maxTemporalAdvance is the filter's walk window: a report at most this many
// slots ahead of the filter walks it there. A report farther ahead (or
// behind — a backward slot is a near-full-day forward wrap) is out-of-band
// historical work and leaves the filter where it is.
const maxTemporalAdvance = 12

// AttachTemporal installs a fitted filter in place of the default one
// NewBatcher builds. A nil filter, or one over another road count, is
// refused. Call it before the batcher serves.
func (b *Batcher) AttachTemporal(f *temporal.Filter) error {
	if f == nil || f.N() != b.sys.Network().N() {
		return fmt.Errorf("core: attach a temporal filter over the network's %d roads", b.sys.Network().N())
	}
	b.temporal = f
	return nil
}

// Temporal returns the batcher's filter. Only Report moves it.
func (b *Batcher) Temporal() *temporal.Filter { return b.temporal }

// Collector returns the batcher's report collector. A report added to it
// directly, not through Report, never moves the filter.
func (b *Batcher) Collector() *stream.Collector { return b.collector }

// temporalSteps returns the forward predict distance from the filter's slot
// to t, and whether t lies in the walk window.
func temporalSteps(from, to tslot.Slot) (int, bool) {
	steps := (int(to) - int(from) + tslot.PerDay) % tslot.PerDay
	return steps, steps <= maxTemporalAdvance
}

// Report ingests one crowd report: the collector stores it, and then, under
// one lock, the report may move the filter. A report 1..maxTemporalAdvance
// slots ahead walks the filter there, fusing each slot it leaves once from
// that slot's aggregates with the system's per-road noise. A filter that
// has fused nothing yet jumps straight to the report's slot. Any other
// report leaves the filter where it is.
func (b *Batcher) Report(r stream.Report) error {
	if err := b.collector.Add(r); err != nil {
		return err
	}
	b.walkMu.Lock()
	defer b.walkMu.Unlock()
	// Add checked the slot and every road against the network, which
	// AttachTemporal holds the filter to, so no filter call below can fail.
	f := b.temporal
	from := f.Slot()
	steps, ok := temporalSteps(from, r.Slot)
	switch {
	case steps > 0 && ok:
		noise := b.sys.ObsNoiseFunc()
		for t := from; t != r.Slot; t = t.Next() {
			_ = f.Update(b.collector.Observations(t), noise)
			_, _ = f.Advance(t.Next())
		}
	case steps > 0 && f.Fused() == 0:
		_ = f.Reset(r.Slot)
	}
	return nil
}

// Closed reports whether no report walks the filter through slot t any more
// before the day wraps: t is neither the filter's slot nor one of the
// maxTemporalAdvance slots after it. The refitter folds only closed slots.
func (b *Batcher) Closed(t tslot.Slot) bool {
	_, open := temporalSteps(b.temporal.Slot(), t)
	return !open
}

// temporalSeed synthesizes a warm-start seed for slot t from the filtered
// posterior when the warm-start LRU has no entry: the filter's state (or its
// k-step forecast when t is ahead of the filter) becomes Initial.Speeds. The
// seed carries no Observed map, so the incremental engine treats every new
// observation as dirty — correct, since the seed is a prediction, not a
// previous propagation.
func (b *Batcher) temporalSeed(t tslot.Slot) *gsp.Result {
	f := b.temporal
	if f.Fused() == 0 {
		// A virgin filter still sits at the prior — seeding from it would
		// label a cold run warm without saving any sweeps.
		return nil
	}
	steps, ok := temporalSteps(f.Slot(), t)
	if !ok {
		return nil
	}
	if steps == 0 {
		est := f.Now()
		if est.Slot != t {
			return nil
		}
		return &gsp.Result{Speeds: est.Speeds, SD: est.SD}
	}
	fan, err := f.Forecast(steps)
	if err != nil || len(fan) == 0 {
		return nil
	}
	last := fan[len(fan)-1]
	if last.Slot != t {
		return nil // a report walked the filter meanwhile; the seed would describe the wrong slot
	}
	return &gsp.Result{Speeds: last.Speeds, SD: last.SD}
}

// warmSeed resolves the GSP seed for slot t: the slot's previous estimate
// when the LRU still holds it, else the filtered posterior predicted to t.
func (b *Batcher) warmSeed(t tslot.Slot) *gsp.Result {
	if prev := b.lastResult(t); prev != nil {
		return prev
	}
	return b.temporalSeed(t)
}
