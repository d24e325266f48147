package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/gsp"
	"repro/internal/qos"
	"repro/internal/router"
	"repro/internal/tslot"
)

// routePair picks a deterministic reachable src→dst pair with a multi-road
// path on the fixture's network.
func routePair(tb testing.TB, f *fixture) (int, int) {
	tb.Helper()
	speeds := make([]float64, f.net.N())
	for i := range speeds {
		speeds[i] = 40
	}
	for dst := f.net.N() - 1; dst > 0; dst-- {
		if r, err := router.Static(f.net, speeds, 0, dst); err == nil && len(r.Roads) >= 3 {
			return 0, dst
		}
	}
	tb.Fatal("no multi-road pair on fixture network")
	return 0, 0
}

func TestRouteETABasic(t *testing.T) {
	f := newFixture(t, 40, 5, 61)
	b, err := NewBatcher(f.sys)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := routePair(t, f)
	truth := f.truth(f.hist.Days-1, 100)
	collect(t, b, 100, map[int]float64{src: truth(src), dst: truth(dst)})
	res, err := b.RouteETA(context.Background(), RouteETARequest{
		Slot: 100, Src: src, Dst: dst, DepartMinute: -1, Horizon: 3,
		Tier: qos.TierFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	eta := res.ETA
	if eta.Minutes <= 0 || eta.SD <= 0 {
		t.Fatalf("degenerate distribution: mean %v SD %v", eta.Minutes, eta.SD)
	}
	if len(eta.Route.Roads) < 3 || eta.Route.Roads[0] != src || eta.Route.Roads[len(eta.Route.Roads)-1] != dst {
		t.Fatalf("route = %v", eta.Route.Roads)
	}
	if len(eta.Segments) != len(eta.Route.Roads)-1 {
		t.Fatalf("segments %d for %d roads", len(eta.Segments), len(eta.Route.Roads))
	}
	// Mean and variance are the segment sums.
	var mean, varsum float64
	for _, seg := range eta.Segments {
		mean += seg.Minutes
		varsum += seg.Variance
		if seg.Provenance == "" {
			t.Errorf("segment %d missing provenance", seg.Road)
		}
	}
	if math.Abs(mean-eta.Minutes) > 1e-9 || math.Abs(varsum-eta.SD*eta.SD) > 1e-9 {
		t.Errorf("segment sums (%v, %v) vs ETA (%v, %v)", mean, varsum, eta.Minutes, eta.SD*eta.SD)
	}
	if res.Tier != qos.TierFull {
		t.Errorf("tier = %v", res.Tier)
	}
	// An observed endpoint is served pinned in the base slot.
	if eta.Segments[len(eta.Segments)-1].Provenance != gsp.ProvObserved.String() &&
		eta.Segments[len(eta.Segments)-1].Slot == 100 {
		t.Errorf("observed dst provenance = %q", eta.Segments[len(eta.Segments)-1].Provenance)
	}
}

func TestRouteETAValidation(t *testing.T) {
	f := newFixture(t, 20, 4, 62)
	b, err := NewBatcher(f.sys)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := b.RouteETA(ctx, RouteETARequest{Slot: 999, Src: 0, Dst: 1}); err == nil {
		t.Error("invalid slot accepted")
	}
	if _, err := b.RouteETA(ctx, RouteETARequest{Slot: 100, Src: 0, Dst: 1, Horizon: 99}); err == nil {
		t.Error("oversized horizon accepted")
	}
	if _, err := b.RouteETA(ctx, RouteETARequest{Slot: 100, Src: -1, Dst: 1}); err == nil {
		t.Error("bad src accepted")
	}
}

// TestRouteETAForecastFan: departing seconds before the slot boundary forces
// later segments into future slots — served from the forecast fan when the
// filter has absorbed evidence, from the prior otherwise.
func TestRouteETAForecastFan(t *testing.T) {
	f := newFixture(t, 40, 5, 63)
	b, filt := newTemporalBatcher(t, f, 99)
	src, dst := routePair(t, f)
	ctx := context.Background()

	// Reports at slot 99, then one at 100, walk the filter to 100 so that
	// Fused() > 0.
	truth := f.truth(f.hist.Days-1, 100)
	report(t, b, 99, map[int]float64{2: truth(2), 7: truth(7)})
	report(t, b, 100, map[int]float64{2: truth(2)})
	if filt.Fused() == 0 {
		t.Fatal("filter absorbed nothing")
	}

	depart := float64(tslot.Slot(100).StartMinute()) + 4.9
	res, err := b.RouteETA(ctx, RouteETARequest{
		Slot: 100, Src: src, Dst: dst, DepartMinute: depart, Horizon: MaxHorizon,
		Tier: qos.TierFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ForecastUsed {
		t.Fatal("trip crossing the boundary did not touch the fan")
	}
	seenForecast := false
	for _, seg := range res.ETA.Segments {
		if seg.Slot == 100 {
			continue
		}
		seenForecast = true
		if seg.Provenance != "forecast" {
			t.Errorf("future segment (slot %d) provenance %q", seg.Slot, seg.Provenance)
		}
	}
	if !seenForecast {
		t.Fatal("no segment entered a future slot")
	}
	if res.ETA.SlotsCrossed < 1 {
		t.Errorf("SlotsCrossed = %d", res.ETA.SlotsCrossed)
	}
}

// TestRouteETAPriorFallback: the filter has fused nothing — future slots
// are priced from the periodicity prior and labeled so; ForecastUsed stays
// false.
func TestRouteETAPriorFallback(t *testing.T) {
	f := newFixture(t, 40, 5, 64)
	b, err := NewBatcher(f.sys)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := routePair(t, f)
	depart := float64(tslot.Slot(100).StartMinute()) + 4.9
	res, err := b.RouteETA(context.Background(), RouteETARequest{
		Slot: 100, Src: src, Dst: dst, DepartMinute: depart, Horizon: MaxHorizon,
		Tier: qos.TierFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ForecastUsed {
		t.Error("filterless route claims forecast provenance")
	}
	future := 0
	for _, seg := range res.ETA.Segments {
		if seg.Slot != 100 {
			future++
			if seg.Provenance != gsp.ProvPrior.String() {
				t.Errorf("future segment provenance %q, want prior", seg.Provenance)
			}
		}
	}
	if future == 0 {
		t.Fatal("no segment entered a future slot")
	}
}

// TestRouteETAHorizonExceeded: horizon 0 confines the trip to the departure
// slot; departing at the slot's last second makes any multi-segment trip
// overflow.
func TestRouteETAHorizonExceeded(t *testing.T) {
	f := newFixture(t, 40, 5, 65)
	b, err := NewBatcher(f.sys)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := routePair(t, f)
	depart := float64(tslot.Slot(100).StartMinute()) + 4.99
	_, err = b.RouteETA(context.Background(), RouteETARequest{
		Slot: 100, Src: src, Dst: dst, DepartMinute: depart, Horizon: 0,
		Tier: qos.TierFull,
	})
	if !errors.Is(err, router.ErrHorizonExceeded) {
		t.Fatalf("err = %v, want ErrHorizonExceeded", err)
	}
}

// TestRouteETAConcurrentSharesSlot: concurrent route queries and point
// queries for the same slot share the serving stack through the singleflight
// — run under -race this is the PR 10 workout; here we also assert a
// k-segment route never amplifies into k propagations (at most one per
// request, shared when concurrent).
func TestRouteETAConcurrentSharesSlot(t *testing.T) {
	f := newFixture(t, 40, 5, 66)
	b, filt := newTemporalBatcher(t, f, 99)
	_ = filt
	src, dst := routePair(t, f)
	ctx := context.Background()
	truth := f.truth(f.hist.Days-1, 100)
	if _, err := b.Estimate(ctx, 100, map[int]float64{2: truth(2)}); err != nil {
		t.Fatal(err)
	}
	runs0 := b.System().Obs().GSP.Runs.Value()

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, 2*clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			depart := float64(tslot.Slot(100).StartMinute()) + float64(c%5)
			res, err := b.RouteETA(ctx, RouteETARequest{
				Slot: 100, Src: src, Dst: dst, DepartMinute: depart, Horizon: MaxHorizon,
				Tier: qos.TierBatched,
			})
			if err != nil {
				errs <- fmt.Errorf("client %d: %v", c, err)
				return
			}
			if res.ETA.Minutes <= 0 {
				errs <- fmt.Errorf("client %d: degenerate ETA", c)
			}
		}(c)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if _, err := b.EstimateTier(ctx, qos.TierBatched, 100, nil); err != nil {
				errs <- fmt.Errorf("point client %d: %v", c, err)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if runs := b.System().Obs().GSP.Runs.Value() - runs0; runs > 2*clients {
		t.Errorf("%d propagations for %d requests — route queries amplify the pipeline", runs, 2*clients)
	}
}

// TestRouteWeightsMatchSensitivity: the Batcher's weight vector is the
// delta-method sensitivity of the planned path.
func TestRouteWeightsMatchSensitivity(t *testing.T) {
	f := newFixture(t, 40, 5, 67)
	b, err := NewBatcher(f.sys)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := routePair(t, f)
	res, err := b.RouteETA(context.Background(), RouteETARequest{
		Slot: 100, Src: src, Dst: dst, DepartMinute: -1, Horizon: 3, Tier: qos.TierFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := b.RouteWeights(res.ETA)
	if len(w) != f.net.N() {
		t.Fatalf("weights len %d", len(w))
	}
	var onPath, offPath float64
	on := map[int]bool{}
	for _, seg := range res.ETA.Segments {
		on[seg.Road] = true
	}
	for r, v := range w {
		if on[r] {
			onPath += v
		} else {
			offPath += v
		}
	}
	if onPath <= 0 {
		t.Error("no weight on the planned path")
	}
	if offPath != 0 {
		t.Errorf("weight %v leaked off the path", offPath)
	}
}
