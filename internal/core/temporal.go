// The evidence ledger. The Batcher owns the report collector and the
// cross-slot state-space filter (package temporal), and Report is the one
// place that decides where a report belongs and when a slot's reports end:
// it moves the filter, fusing each slot it leaves exactly once from that
// slot's robust aggregates, and empties each slot it enters, or the whole
// collector once the filter's slot is half a day old by the collector's
// clock, so a slot holds one day's reports. Every other read of a slot's
// aggregates — estimates, forecasts, routes and the report mark subscribers
// wait on — goes through observations, which sees nothing once the next
// report would empty the collector. Reads never move the filter: when a
// slot's warm-start LRU entry is missing, the filtered posterior, predicted
// forward to the slot, stands in as the GSP seed, and routes and forecasts
// fuse the current, not-yet-fused slot into a snapshot of it.
package core

import (
	"fmt"
	"time"

	"repro/internal/gsp"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/tslot"
)

// MaxHorizon is the farthest slot ahead a forecast reaches (12 slots = one
// hour): the cap of /v1/forecast and /v1/route and of RouteETA, and of the
// filter forecast that seeds a fresh slot's GSP run. Beyond it the fan has
// reverted to the prior band. A filter that has fused nothing walks to a
// report at most this far ahead and jumps to one farther away.
const MaxHorizon = 12

// walkWindow is half a day. A filter holding evidence walks to a report
// fewer than walkWindow slots ahead; a report walkWindow or more slots ahead
// is late, for a slot up to walkWindow behind the filter.
const walkWindow = tslot.PerDay / 2

// staleAfter is how long after the filter's slot began a report can first be
// a later day's. The start Report keeps is a report's arrival, up to one
// slot after the slot's own start, so a report walkWindow slots ahead can
// arrive walkWindow−1 slots after it.
const staleAfter = (walkWindow - 1) * tslot.Duration

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
// directly, not through Report, never moves the filter. Serving reads go
// through EstimateTier, Forecast and Mark instead, which see none of it once
// stale.
func (b *Batcher) Collector() *stream.Collector { return b.collector }

// stepsAhead counts how many slots to lies ahead of from, cyclically, in
// [0, tslot.PerDay).
func stepsAhead(from, to tslot.Slot) int {
	return (int(to) - int(from) + tslot.PerDay) % tslot.PerDay
}

// Report ingests one crowd report. Under one lock it checks the report,
// moves the filter, and only then adds the report, so a rejected report
// never moves the filter and a slot the walk enters is emptied before the
// report lands in it.
//
// A report names a slot of the day but not the day, so Report times the
// filter's slot by the collector's clock. Until staleAfter after the slot
// began, a filter that holds evidence walks to a report fewer than
// walkWindow slots ahead, and a report farther ahead is late: it joins its
// slot and leaves the filter. A filter that has fused nothing walks at most
// MaxHorizon slots and jumps farther, but once its slot holds reports a
// report walkWindow or more ahead is late to it too. After staleAfter, all
// the collector holds is at least half a day old: the report empties it
// and restarts the filter at its slot.
func (b *Batcher) Report(r stream.Report) error {
	b.walkMu.Lock()
	defer b.walkMu.Unlock()
	col, f := b.collector, b.temporal
	if err := col.Check(r); err != nil {
		return err
	}
	now := col.Now()
	began := now
	if p := b.began.Load(); p != nil {
		began = *p
	}
	from := f.Slot()
	steps := stepsAhead(from, r.Slot)
	switch virgin := steps > 0 && f.Fused() == 0; {
	case now.Sub(began) >= staleAfter:
		b.jump(r.Slot, tslot.PerDay)
		began, steps = now, 0
	case steps == 0:
	case virgin && steps <= MaxHorizon, !virgin && steps < walkWindow:
		b.walk(r.Slot)
	case virgin && (steps < walkWindow || col.First(from) == 0):
		b.jump(r.Slot, walkWindow)
	default: // late
		steps = 0
	}
	// The new slot began steps slots later, but not after this report came.
	if began = began.Add(time.Duration(steps) * tslot.Duration); began.After(now) {
		began = now
	}
	b.began.Store(&began)
	return col.Add(r)
}

// stale reports whether the filter's slot began staleAfter or more ago by
// the collector's clock: Report's test for emptying the whole collector, so
// a read that sees it serves nothing the next report will empty.
func (b *Batcher) stale() bool {
	began := b.began.Load()
	return began != nil && b.collector.Now().Sub(*began) >= staleAfter
}

// observations is the one read of slot t's aggregates: the collector's,
// or none once they are stale.
func (b *Batcher) observations(t tslot.Slot) map[int]float64 {
	if b.stale() {
		return map[int]float64{}
	}
	return b.collector.Observations(t)
}

// Mark is slot t's report mark (stream.Collector.Mark) as reads see it: 0
// once the aggregates are stale. A subscriber waits for it to change.
func (b *Batcher) Mark(t tslot.Slot) int {
	if b.stale() {
		return 0
	}
	return b.collector.Mark(t)
}

// Forecast is the filter's read-only k-step fan from slot t
// (temporal.Filter.ForecastFrom): a snapshot synced to t fuses t's
// aggregates, priced at the system's per-road noise. It also returns how
// many roads had aggregates.
func (b *Batcher) Forecast(t tslot.Slot, k int) ([]temporal.ForecastStep, int, error) {
	observed := b.observations(t)
	fan, err := b.temporal.ForecastFrom(t, k, observed, b.sys.ObsNoiseFunc())
	return fan, len(observed), err
}

// walk moves the filter one slot at a time to slot to. Each step fuses the
// slot it leaves from that slot's aggregates with the system's per-road
// noise, predicts one step, and empties the slot it enters and the slot
// walkWindow−1 after it, then walkWindow+1 behind, so no slot holds two
// days. Check has held the report to the network, which AttachTemporal
// holds the filter to, so no filter call can fail.
func (b *Batcher) walk(to tslot.Slot) {
	f, col := b.temporal, b.collector
	noise := b.sys.ObsNoiseFunc()
	for t := f.Slot(); t != to; t = t.Next() {
		_ = f.Update(col.Observations(t), noise)
		in := t.Next()
		_, _ = f.Advance(in)
		col.Reset(in)
		col.Reset(in.Add(walkWindow - 1))
	}
}

// jump moves the filter straight to slot to, at the slot's prior, and
// empties n slots from to on: walkWindow, so that like a walk it leaves the
// collector holding nothing ahead of the filter, or the whole day.
func (b *Batcher) jump(to tslot.Slot, n int) {
	_ = b.temporal.Reset(to)
	for k := 0; k < n; k++ {
		b.collector.Reset(to.Add(k))
	}
}

// Closed reports whether the filter is done with slot t's reports: t is not
// the filter's slot, whose reports the walk fuses when it leaves. The walk
// never fuses a slot behind the filter again, and empties a slot ahead of
// it on entering it. The refitter folds only closed slots.
func (b *Batcher) Closed(t tslot.Slot) bool {
	return t != b.temporal.Slot()
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
	steps := stepsAhead(f.Slot(), t)
	if steps > MaxHorizon {
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
