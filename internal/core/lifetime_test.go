package core

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/stream"
	"repro/internal/tslot"
)

// TestReportLifetimeProperty drives a seeded random report stream through
// Batcher.Report over 60 days, with the collector's clock reading a random
// instant of each report's slot: same-slot reports, steps of 1–3 slots,
// outages of 13–287 slots with late reports arriving in their first 141,
// silences of half a day (one slot either side) to two days, and reports
// 1–144 slots late. After every report: each slot the collector holds is
// the filter's or at most walkWindow slots behind it; each slot holds one
// day's reports; a report of the stream's current slot leaves the filter
// there; and, unless the report ends an outage or a silence, the slot the
// filter was at keeps its reports. make race-hotpath runs it under the race
// detector.
func TestReportLifetimeProperty(t *testing.T) {
	f := newFixture(t, 12, 3, 67)
	b, err := NewBatcher(f.sys)
	if err != nil {
		t.Fatal(err)
	}
	filt, col := b.Temporal(), b.Collector()
	base := time.Date(2026, 10, 5, 0, 0, 0, 0, time.UTC)
	clk := obs.NewFakeClock(base, 0)
	col.SetClock(clk)
	rng := rand.New(rand.NewSource(67))
	// held lists, per slot, the accepted reports as (collector total, the
	// stream's absolute slot), in order.
	type accepted struct{ total, abs int }
	held := make(map[tslot.Slot][]accepted)
	now := rng.Intn(tslot.PerDay) // the stream's absolute slot
	const gapEnd = "the report after an outage or a silence"
	send := func(abs int, what string) {
		at := base.Add(time.Duration(now)*tslot.Duration + time.Duration(rng.Int63n(int64(tslot.Duration))))
		if d := at.Sub(clk.Current()); d > 0 {
			clk.Advance(d)
		}
		r := stream.Report{Road: rng.Intn(f.net.N()), Slot: tslot.Slot(abs % tslot.PerDay), Speed: 20 + 60*rng.Float64()}
		from := filt.Slot()
		kept := col.First(from)
		if err := b.Report(r); err != nil {
			t.Fatal(err)
		}
		held[r.Slot] = append(held[r.Slot], accepted{col.TotalReports(), abs})
		to := filt.Slot()
		if abs == now && to != r.Slot {
			t.Fatalf("after %s %+v: the filter is at %v", what, r, to)
		}
		if what != gapEnd && kept != 0 && col.First(from) != kept {
			t.Fatalf("after %s %+v: the filter moved %v → %v and emptied %v", what, r, from, to, from)
		}
		for _, s := range col.Slots() {
			if behind := stepsAhead(s, to); behind > walkWindow {
				t.Fatalf("after %s %+v: slot %v holds reports %d slots behind the filter at %v", what, r, s, behind, to)
			}
			first := col.First(s)
			rs := held[s]
			rs = rs[sort.Search(len(rs), func(i int) bool { return rs[i].total >= first }):]
			held[s] = rs
			for _, a := range rs {
				if a.abs != rs[0].abs {
					t.Fatalf("after %s %+v: slot %v holds reports of absolute slots %d and %d", what, r, s, rs[0].abs, a.abs)
				}
			}
		}
	}
	late := func() int { return now - 1 - rng.Intn(walkWindow) }
	send(now, "the first report")
	for start := now; now-start < 60*tslot.PerDay; {
		switch p := rng.Float64(); {
		case p < 0.4:
			send(now, "a same-slot report")
		case p < 0.75:
			now += 1 + rng.Intn(3)
			send(now, "a next-slot report")
		case p < 0.78:
			end, lateUntil := now+13+rng.Intn(tslot.PerDay-13), now+walkWindow-3
			for now += 1 + rng.Intn(end-now); now < end && now <= lateUntil; now += 1 + rng.Intn(end-now) {
				send(late(), "a late report in an outage")
			}
			now = end
			send(now, gapEnd)
		case p < 0.79:
			if rng.Intn(2) == 0 {
				now += walkWindow - 1 + rng.Intn(3)
			} else {
				now += walkWindow + rng.Intn(3*walkWindow)
			}
			send(now, gapEnd)
		default:
			send(late(), "a late report")
		}
	}
}

// TestReportWalksThroughOutage: a filter that holds evidence at slot 5
// follows reports at slots 30–59. The first report after the 25-slot outage
// walks it there, one predict step per slot, and it ends at 59. The walk
// empties each slot it enters, so a report added to slot 40 directly, ahead
// of the filter, does not outlive the walk into 40.
func TestReportWalksThroughOutage(t *testing.T) {
	f := newFixture(t, 30, 4, 69)
	b, filt := newTemporalBatcher(t, f, 4)
	pipe := b.System().Obs()
	day := f.hist.Days - 1
	report(t, b, 4, map[int]float64{1: f.truth(day, 4)(1), 2: f.truth(day, 4)(2)})
	report(t, b, 5, map[int]float64{1: f.truth(day, 5)(1)})
	if filt.Slot() != 5 || filt.Fused() == 0 {
		t.Fatalf("filter at slot %v with %d fused, want 5 with evidence", filt.Slot(), filt.Fused())
	}
	if err := b.Collector().Add(stream.Report{Road: 3, Slot: 40, Speed: 10}); err != nil {
		t.Fatal(err)
	}
	predicts := pipe.Temporal.Predicts.Value()
	for slot := tslot.Slot(30); slot <= 59; slot++ {
		road := int(slot) % f.net.N()
		report(t, b, slot, map[int]float64{road: f.truth(day, slot)(road)})
	}
	if filt.Slot() != 59 {
		t.Errorf("filter ended at slot %v, want 59", filt.Slot())
	}
	if got := pipe.Temporal.Predicts.Value() - predicts; got != 54 {
		t.Errorf("walk 5→59 made %d predict steps, want 54", got)
	}
	if b.Collector().Count(40, 3) != 0 {
		t.Error("a report added at slot 40 before the walk entered it is still there")
	}
}

// TestLateReportKeepsLiveSlot: a filter that holds evidence at slot 200, with
// five roads reported there, keeps its slot and those five roads after a
// report at slot 56, 144 slots ahead: a late report joins its own slot.
func TestLateReportKeepsLiveSlot(t *testing.T) {
	f := newFixture(t, 30, 4, 70)
	b, filt := newTemporalBatcher(t, f, 199)
	day := f.hist.Days - 1
	report(t, b, 199, map[int]float64{1: f.truth(day, 199)(1), 2: f.truth(day, 199)(2)})
	live := map[int]float64{}
	for r := 0; r < 5; r++ {
		live[r] = f.truth(day, 200)(r)
	}
	report(t, b, 200, live)
	if filt.Slot() != 200 || filt.Fused() == 0 {
		t.Fatalf("filter at slot %v with %d fused, want 200 with evidence", filt.Slot(), filt.Fused())
	}
	report(t, b, 56, map[int]float64{7: 40})
	if filt.Slot() != 200 {
		t.Errorf("a late report moved the filter to %v", filt.Slot())
	}
	if got := len(b.Collector().Observations(200)); got != 5 {
		t.Errorf("slot 200 holds %d roads after a report at slot 56, want 5", got)
	}
	if b.Collector().Count(56, 7) != 1 {
		t.Error("the late report did not join slot 56")
	}
}

// TestRejectedReportLeavesFilter: Report checks a report before it moves the
// filter, so a rejected report neither jumps a filter that has fused
// nothing nor walks one that holds evidence, and it counts as rejected.
func TestRejectedReportLeavesFilter(t *testing.T) {
	f := newFixture(t, 20, 3, 68)
	b, filt := newTemporalBatcher(t, f, 50)
	rejected := b.System().Obs().Stream.Rejected
	if err := b.Report(stream.Report{Road: 1, Slot: 150, Speed: 500}); err == nil {
		t.Fatal("a report at 500 km/h was accepted")
	}
	if filt.Slot() != 50 {
		t.Errorf("a rejected report jumped the filter to %v", filt.Slot())
	}
	report(t, b, 50, map[int]float64{1: 40, 2: 45})
	report(t, b, 51, map[int]float64{1: 40})
	fused := filt.Fused()
	for _, r := range []stream.Report{
		{Road: -1, Slot: 60, Speed: 40},
		{Road: 1, Slot: 60, Speed: -3},
		{Road: 1, Slot: 60, Speed: math.NaN()},
		{Road: 1, Slot: 999, Speed: 40},
	} {
		if err := b.Report(r); err == nil {
			t.Errorf("report %+v accepted", r)
		}
	}
	if filt.Slot() != 51 || filt.Fused() != fused {
		t.Errorf("rejected reports moved the filter to slot %v, fused %d → %d", filt.Slot(), fused, filt.Fused())
	}
	if got := rejected.Value(); got != 5 {
		t.Errorf("rejected counter %d, want 5", got)
	}
}

// TestReportAfterNightRestarts: reports come from 07:00 to 18:55 (slots
// 84–227) on day 1, each four minutes into its slot, and from 06:55 (slot
// 83) on day 2, by a clock that runs five minutes a slot. Day 2's first
// report is 144 slots ahead of the filter and comes 11 h 56 min after the
// slot the filter is at began, so it cannot be late: it empties day 1's
// reports and restarts the filter at slot 83, which then follows day 2. A
// day-2 report at slot 100 is the only one there, and leaving slot 100 fuses
// only its road.
func TestReportAfterNightRestarts(t *testing.T) {
	f := newFixture(t, 30, 4, 71)
	b, filt := newTemporalBatcher(t, f, 84)
	pipe, col := b.System().Obs(), b.Collector()
	clk := obs.NewFakeClock(time.Date(2026, 10, 5, 7, 4, 0, 0, time.UTC), 0)
	col.SetClock(clk)
	day := f.hist.Days - 1
	for slot := tslot.Slot(84); slot <= 227; slot++ {
		roads := map[int]float64{}
		for _, r := range []int{int(slot) % 30, (int(slot) + 7) % 30} {
			roads[r] = f.truth(day, slot)(r)
		}
		report(t, b, slot, roads)
		clk.Advance(tslot.Duration)
	}
	if filt.Slot() != 227 || filt.Fused() == 0 {
		t.Fatalf("day 1 left the filter at slot %v with %d fused, want 227 with evidence", filt.Slot(), filt.Fused())
	}
	clk.Advance(12*time.Hour - 9*time.Minute) // 19:04 → 06:55
	for slot := tslot.Slot(83); slot <= 227; slot++ {
		road := (int(slot) + 3) % 30
		updates := pipe.Temporal.Updates.Value()
		report(t, b, slot, map[int]float64{road: f.truth(day, slot)(road)})
		if filt.Slot() != slot {
			t.Fatalf("a day-2 report at slot %v left the filter at %v", slot, filt.Slot())
		}
		if got := len(col.Observations(slot)); got != 1 {
			t.Errorf("after day 2's report at slot %v the slot holds %d roads, want 1", slot, got)
		}
		if slot == 101 {
			if got := pipe.Temporal.Updates.Value() - updates; got != 1 {
				t.Errorf("leaving slot 100 on day 2 fused %d roads, want 1", got)
			}
		}
		clk.Advance(tslot.Duration)
	}
	if got := col.SlotCount(); got != 145 {
		t.Errorf("after day 2 the collector holds %d slots, want day 2's 145", got)
	}
}

// TestStragglerKeepsVirginSlot: the first report places a fresh filter at
// its slot, 150, and five roads report there. Reports at 149 and 100 are
// behind it, not far ahead: each joins its own slot, the filter stays, and
// slot 150 keeps its five roads.
func TestStragglerKeepsVirginSlot(t *testing.T) {
	f := newFixture(t, 30, 4, 72)
	b, err := NewBatcher(f.sys)
	if err != nil {
		t.Fatal(err)
	}
	filt, col := b.Temporal(), b.Collector()
	live := map[int]float64{}
	for r := 0; r < 5; r++ {
		live[r] = f.truth(f.hist.Days-1, 150)(r)
	}
	report(t, b, 150, live)
	if filt.Slot() != 150 || filt.Fused() != 0 {
		t.Fatalf("the first reports left the filter at slot %v with %d fused, want 150 and 0", filt.Slot(), filt.Fused())
	}
	for _, slot := range []tslot.Slot{149, 100} {
		report(t, b, slot, map[int]float64{7: 40})
		if filt.Slot() != 150 {
			t.Errorf("a report at slot %v moved the filter to %v", slot, filt.Slot())
		}
		if got := len(col.Observations(150)); got != 5 {
			t.Errorf("after a report at slot %v slot 150 holds %d roads, want 5", slot, got)
		}
		if col.Count(slot, 7) != 1 {
			t.Errorf("the report at slot %v did not join its slot", slot)
		}
	}
}

// TestReadsRaceSilence: four readers — EstimateTier, Forecast, Mark and
// RouteETA over slots 84–119 — each make a read, then keep reading while
// reports walk the filter from 84 to 119, one slot per five minutes of the
// collector's clock, and then the clock jumps twelve hours. Every read succeeds. After the jump every read sees no
// aggregates, since the next report empties them all, and that report
// restarts the filter at its slot, which then reads its one road. make
// race-hotpath runs it under the race detector.
func TestReadsRaceSilence(t *testing.T) {
	f := newFixture(t, 30, 4, 73)
	b, filt := newTemporalBatcher(t, f, 84)
	clk := obs.NewFakeClock(time.Date(2026, 10, 5, 7, 4, 0, 0, time.UTC), 0)
	b.Collector().SetClock(clk)
	src, dst := routePair(t, f)
	day, ctx := f.hist.Days-1, context.Background()

	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		started.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if i == 1 {
					started.Done()
				}
				select {
				case <-stop:
					return
				default:
				}
				slot := tslot.Slot(84 + (c*9+i)%36)
				var err error
				switch c {
				case 0:
					_, err = b.EstimateTier(ctx, qos.Tier(i%4), slot, nil)
				case 1:
					_, _, err = b.Forecast(slot, 3)
				case 2:
					b.Mark(slot)
				case 3:
					_, err = b.RouteETA(ctx, RouteETARequest{Slot: slot, Src: src, Dst: dst, DepartMinute: -1, Horizon: 3})
				}
				if err != nil {
					t.Errorf("reader %d at slot %v: %v", c, slot, err)
				}
			}
		}(c)
	}
	started.Wait()
	for slot := tslot.Slot(84); slot < 120; slot++ {
		report(t, b, slot, map[int]float64{int(slot) % 30: f.truth(day, slot)(int(slot) % 30), 3: f.truth(day, slot)(3)})
		clk.Advance(tslot.Duration)
	}
	clk.Advance(12 * time.Hour)
	for _, slot := range []tslot.Slot{84, 100, 119} {
		res, err := b.EstimateTier(ctx, qos.TierFull, slot, nil)
		_, n, ferr := b.Forecast(slot, 3)
		if err != nil || ferr != nil {
			t.Fatal(err, ferr)
		}
		if m := b.Mark(slot); m != 0 || res.ObservedRoads != 0 || n != 0 {
			t.Errorf("after the silence slot %v reads mark %d, %d estimated and %d forecast roads; want 0, 0, 0",
				slot, m, res.ObservedRoads, n)
		}
	}
	report(t, b, 90, map[int]float64{5: f.truth(day, 90)(5)})
	res, err := b.EstimateTier(ctx, qos.TierFull, 90, nil)
	if err != nil {
		t.Fatal(err)
	}
	if filt.Slot() != 90 || b.Mark(90) == 0 || res.ObservedRoads != 1 {
		t.Errorf("after the next report the filter is at %v and slot 90 reads mark %d and %d roads; want 90, > 0, 1",
			filt.Slot(), b.Mark(90), res.ObservedRoads)
	}
	close(stop)
	wg.Wait()
}
