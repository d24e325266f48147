package core

import (
	"context"
	"testing"
	"time"

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
	b.AttachTemporal(filt)
	return b, filt
}

// TestEstimateFeedsFilter: a batcher estimate with probes advances the
// attached filter to the slot and fuses the probes; a probe-less estimate
// falls back to the GSP field as a pseudo-observation.
func TestEstimateFeedsFilter(t *testing.T) {
	f := newFixture(t, 40, 5, 61)
	b, filt := newTemporalBatcher(t, f, 99)
	pipe := b.System().Obs()

	truth := f.truth(f.hist.Days-1, 100)
	obs := map[int]float64{2: truth(2), 7: truth(7)}
	if _, err := b.Estimate(context.Background(), 100, obs); err != nil {
		t.Fatal(err)
	}
	if got := filt.Slot(); got != 100 {
		t.Fatalf("filter slot = %v, want 100", got)
	}
	if pipe.Temporal.Predicts.Value() != 1 {
		t.Errorf("predicts = %d, want 1", pipe.Temporal.Predicts.Value())
	}
	if pipe.Temporal.Updates.Value() != 2 {
		t.Errorf("updates = %d, want 2 (one per probed road)", pipe.Temporal.Updates.Value())
	}
	// The filtered posterior on a probed road moved off the prior toward the
	// probe.
	est := filt.Now()
	mu := b.System().Model().Mu(100, 2)
	if est.Speeds[2] == mu {
		t.Error("probed road still at prior after feed")
	}

	// Probe-less estimate of the next slot: pseudo-observation fallback.
	if _, err := b.Estimate(context.Background(), 101, nil); err != nil {
		t.Fatal(err)
	}
	if pipe.Temporal.PseudoObs.Value() != 1 {
		t.Errorf("pseudo-obs = %d, want 1", pipe.Temporal.PseudoObs.Value())
	}
	if got := filt.Slot(); got != 101 {
		t.Fatalf("filter slot = %v, want 101", got)
	}

	// A far-away slot (historical re-estimate) must not drag the filter.
	if _, err := b.Estimate(context.Background(), 250, nil); err != nil {
		t.Fatal(err)
	}
	if got := filt.Slot(); got != 101 {
		t.Errorf("out-of-band estimate moved the filter to %v", got)
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
	obs := map[int]float64{1: truth(1), 4: truth(4), 9: truth(9)}
	if _, err := b.Estimate(context.Background(), 120, obs); err != nil {
		t.Fatal(err)
	}
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

	// Without a filter the same fresh-slot estimate runs cold.
	b2, err := NewBatcher(b.System())
	if err != nil {
		t.Fatal(err)
	}
	warm1 := pipe.GSP.WarmStarts.Value()
	if _, err := b2.Estimate(context.Background(), 140, map[int]float64{1: truth(1)}); err != nil {
		t.Fatal(err)
	}
	if got := pipe.GSP.WarmStarts.Value(); got != warm1 {
		t.Errorf("filterless fresh-slot estimate unexpectedly warm-started")
	}
}

// TestFeedTemporalConcurrent hammers estimate/feed from many goroutines to
// shake out races between Advance and the seed path (run with -race).
func TestFeedTemporalConcurrent(t *testing.T) {
	f := newFixture(t, 30, 4, 64)
	b, _ := newTemporalBatcher(t, f, 10)
	truth := f.truth(f.hist.Days-1, 11)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			slot := tslot.Slot(11 + g%3)
			obs := map[int]float64{g % 5: truth(g % 5)}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := b.Estimate(ctx, slot, obs); err != nil {
				t.Errorf("estimate: %v", err)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if got := b.Temporal().Slot(); got < 11 || got > 13 {
		t.Errorf("filter ended at slot %v, want within fed band [11,13]", got)
	}
}
