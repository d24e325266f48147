package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/tslot"
)

func newTemporalBatcher(tb testing.TB, f *fixture, start tslot.Slot) (*Batcher, *temporal.Filter) {
	tb.Helper()
	sys, pipe := instrumented(tb, f)
	b, err := NewBatcher(sys)
	if err != nil {
		tb.Fatal(err)
	}
	filt, err := temporal.New(sys.Model(), start, temporal.DefaultParams(), nil,
		temporal.Options{Metrics: pipe.Temporal})
	if err != nil {
		tb.Fatal(err)
	}
	if err := b.AttachTemporal(filt); err != nil {
		tb.Fatal(err)
	}
	return b, filt
}

// report sends one report per road of speeds at slot t through the
// Batcher's ingest path.
func report(tb testing.TB, b *Batcher, t tslot.Slot, speeds map[int]float64) {
	tb.Helper()
	for r, v := range speeds {
		if err := b.Report(stream.Report{Road: r, Slot: t, Speed: v}); err != nil {
			tb.Fatal(err)
		}
	}
}

func TestAttachTemporalRefuses(t *testing.T) {
	f := newFixture(t, 20, 3, 60)
	b, err := NewBatcher(f.sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AttachTemporal(nil); err == nil {
		t.Error("nil filter attached")
	}
	small := newFixture(t, 10, 3, 60)
	other, err := temporal.New(small.sys.Model(), 0, temporal.DefaultParams(), nil, temporal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AttachTemporal(other); err == nil {
		t.Error("filter over another road count attached")
	}
	if b.Temporal() == nil || b.Temporal().N() != f.net.N() {
		t.Error("refused attach replaced the batcher's filter")
	}
}

// TestReportFeedsFilter: a report that opens the next slot walks the filter
// there and fuses the slot it leaves, one update per reported road.
// Estimates only read the filter, and a report outside the walk window
// leaves it where it is.
func TestReportFeedsFilter(t *testing.T) {
	f := newFixture(t, 40, 5, 61)
	b, filt := newTemporalBatcher(t, f, 99)
	pipe := b.System().Obs()

	truth := f.truth(f.hist.Days-1, 99)
	report(t, b, 99, map[int]float64{2: truth(2), 7: truth(7)})
	if filt.Slot() != 99 || filt.Fused() != 0 {
		t.Fatalf("reports at the filter's own slot moved it: slot %v fused %d", filt.Slot(), filt.Fused())
	}
	report(t, b, 100, map[int]float64{2: f.truth(f.hist.Days-1, 100)(2)})
	if got := filt.Slot(); got != 100 {
		t.Fatalf("filter slot = %v, want 100", got)
	}
	if pipe.Temporal.Predicts.Value() != 1 {
		t.Errorf("predicts = %d, want 1", pipe.Temporal.Predicts.Value())
	}
	if pipe.Temporal.Updates.Value() != 2 {
		t.Errorf("updates = %d, want 2 (one per road reported at slot 99)", pipe.Temporal.Updates.Value())
	}
	// The filtered posterior on a reported road moved off the prior toward
	// the report.
	est := filt.Now()
	if mu := b.System().Model().Mu(100, 2); est.Speeds[2] == mu {
		t.Error("reported road still at prior after the walk")
	}

	// Estimates, with reports or without, leave the filter bit-identical.
	fused := filt.Fused()
	for _, slot := range []tslot.Slot{100, 101} {
		if _, err := b.Estimate(context.Background(), slot, b.Collector().Observations(slot)); err != nil {
			t.Fatal(err)
		}
	}
	if filt.Slot() != 100 || filt.Fused() != fused || !reflect.DeepEqual(filt.Now(), est) {
		t.Error("an estimate moved the filter")
	}

	// A far-away slot (historical report) must not drag the filter.
	report(t, b, 250, map[int]float64{1: 30})
	if got := filt.Slot(); got != 100 {
		t.Errorf("out-of-band report moved the filter to %v", got)
	}
}

// TestReportJumpsVirginFilter: a filter that has fused nothing jumps straight
// to the slot of a report more than MaxHorizon slots ahead, and from there
// walks. Once it holds evidence it walks to a report fewer than walkWindow
// slots ahead, and a report walkWindow or more ahead leaves it.
func TestReportJumpsVirginFilter(t *testing.T) {
	f := newFixture(t, 30, 4, 65)
	b, err := NewBatcher(f.sys)
	if err != nil {
		t.Fatal(err)
	}
	filt := b.Temporal()
	truth := f.truth(f.hist.Days-1, 84)
	report(t, b, 84, map[int]float64{1: truth(1), 3: truth(3)})
	if filt.Slot() != 84 || filt.Fused() != 0 {
		t.Fatalf("virgin filter at slot %v fused %d after a report at 84, want 84 and 0", filt.Slot(), filt.Fused())
	}
	report(t, b, 85, map[int]float64{1: truth(1)})
	if filt.Slot() != 85 || filt.Fused() != 2 {
		t.Fatalf("filter at slot %v fused %d after a report at 85, want 85 and 2", filt.Slot(), filt.Fused())
	}
	report(t, b, 200, map[int]float64{1: truth(1)})
	if filt.Slot() != 200 {
		t.Errorf("a report 115 slots ahead left a filter with evidence at %v, want 200", filt.Slot())
	}
	report(t, b, 56, map[int]float64{1: truth(1)})
	if filt.Slot() != 200 {
		t.Errorf("a report 144 slots ahead moved a filter with evidence to %v", filt.Slot())
	}
}

// TestTemporalSeedsWarmStart checks that when the warm-start LRU has no entry
// for a slot, the filtered posterior (predicted forward) seeds the GSP run, so the
// first estimate of a fresh slot still warm-starts.
func TestTemporalSeedsWarmStart(t *testing.T) {
	f := newFixture(t, 40, 5, 62)
	b, _ := newTemporalBatcher(t, f, 119)
	pipe := b.System().Obs()

	truth := f.truth(f.hist.Days-1, 120)
	report(t, b, 119, map[int]float64{1: truth(1), 4: truth(4), 9: truth(9)})
	report(t, b, 120, map[int]float64{1: truth(1)})
	warm0 := pipe.GSP.WarmStarts.Value()

	// Slot 121 was never estimated: the LRU misses, but the filter's one-step
	// forecast stands in as the seed.
	if _, err := b.Estimate(context.Background(), 121, map[int]float64{1: truth(1)}); err != nil {
		t.Fatal(err)
	}
	if got := pipe.GSP.WarmStarts.Value(); got != warm0+1 {
		t.Errorf("fresh-slot estimate not warm-started from the filter (warm starts %d -> %d)",
			warm0, got)
	}

	// With a filter that has fused nothing the same fresh-slot estimate runs
	// cold.
	b2, err := NewBatcher(b.System())
	if err != nil {
		t.Fatal(err)
	}
	warm1 := pipe.GSP.WarmStarts.Value()
	if _, err := b2.Estimate(context.Background(), 140, map[int]float64{1: truth(1)}); err != nil {
		t.Fatal(err)
	}
	if got := pipe.GSP.WarmStarts.Value(); got != warm1 {
		t.Errorf("fresh-slot estimate over a virgin filter unexpectedly warm-started")
	}
}

// TestReportWalkConcurrent: eight clients report slot 11 concurrently, then
// slot 12, while as many estimate each slot (the seed path reads the filter
// during the walks). The filter ends at 12 having fused slot 11 exactly
// once: Updates up by the roads holding aggregates at 11, Predicts up by 1.
// make race-hotpath runs it under the race detector.
func TestReportWalkConcurrent(t *testing.T) {
	f := newFixture(t, 30, 4, 64)
	b, filt := newTemporalBatcher(t, f, 10)
	pipe := b.System().Obs()
	const clients = 8
	phase := func(slot tslot.Slot) {
		truth := f.truth(f.hist.Days-1, slot)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(2)
			go func(c int) {
				defer wg.Done()
				for k := 0; k < 3; k++ {
					road := (3*c + k) % f.net.N()
					if err := b.Report(stream.Report{Road: road, Slot: slot, Speed: truth(road)}); err != nil {
						t.Error(err)
					}
				}
			}(c)
			go func() {
				defer wg.Done()
				if _, err := b.Estimate(context.Background(), slot, b.Collector().Observations(slot)); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	phase(11)
	predicts, updates := pipe.Temporal.Predicts.Value(), pipe.Temporal.Updates.Value()
	roads := len(b.Collector().Observations(11))
	phase(12)
	if got := filt.Slot(); got != 12 {
		t.Errorf("filter ended at slot %v, want 12", got)
	}
	if got := pipe.Temporal.Updates.Value() - updates; got != uint64(roads) {
		t.Errorf("walk 11→12 made %d updates, want %d (the roads reported at 11)", got, roads)
	}
	if got := pipe.Temporal.Predicts.Value() - predicts; got != 1 {
		t.Errorf("walk 11→12 made %d predict steps, want 1", got)
	}
}
