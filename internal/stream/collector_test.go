package stream

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tslot"
)

func TestCollectorSlotsSorted(t *testing.T) {
	c := NewCollector(4)
	for _, s := range []tslot.Slot{40, 10, 30, 20} {
		if err := c.Add(Report{Road: 0, Slot: s, Speed: 30}); err != nil {
			t.Fatal(err)
		}
	}
	slots := c.Slots()
	want := []tslot.Slot{10, 20, 30, 40}
	if len(slots) != len(want) {
		t.Fatalf("slots %v", slots)
	}
	for i := range want {
		if slots[i] != want[i] {
			t.Fatalf("slots %v not ascending", slots)
		}
	}
}

// TestCollectorMark: a slot's mark moves on every accepted report, even one
// that leaves the aggregate unchanged, and not on a rejected one; it drops
// to 0 on Reset and never repeats an earlier non-zero value.
func TestCollectorMark(t *testing.T) {
	c := NewCollector(4)
	seen := map[int]bool{}
	add := func(r Report) {
		t.Helper()
		before := c.Mark(r.Slot)
		if err := c.Add(r); err != nil {
			t.Fatal(err)
		}
		m := c.Mark(r.Slot)
		if m == 0 || m == before || seen[m] {
			t.Fatalf("report %+v: mark %d → %d (seen before: %v)", r, before, m, seen[m])
		}
		seen[m] = true
	}
	if c.Mark(10) != 0 {
		t.Fatal("empty slot has a mark")
	}
	add(Report{Road: 0, Slot: 10, Speed: 30})
	add(Report{Road: 1, Slot: 10, Speed: 30})
	add(Report{Road: 0, Slot: 10, Speed: 30})
	m := c.Mark(10)
	for _, bad := range []Report{{Road: 9, Slot: 10, Speed: 30}, {Road: 0, Slot: 10, Speed: 500}} {
		if err := c.Add(bad); err == nil {
			t.Fatalf("report %+v accepted", bad)
		}
		if c.Mark(10) != m {
			t.Errorf("rejected report %+v moved the mark", bad)
		}
	}
	c.Reset(10)
	if c.Mark(10) != 0 {
		t.Errorf("mark %d after Reset, want 0", c.Mark(10))
	}
	add(Report{Road: 0, Slot: 10, Speed: 30})
	add(Report{Road: 2, Slot: 11, Speed: 40})
}

// TestCollectorFirst: a slot's first mark is the total at its first held
// report. More reports leave it alone; Reset drops it to 0, and the slot's
// next report gives it a new value.
func TestCollectorFirst(t *testing.T) {
	c := NewCollector(4)
	if c.First(10) != 0 {
		t.Fatal("empty slot has a first mark")
	}
	for _, r := range []Report{{Road: 0, Slot: 11, Speed: 30}, {Road: 0, Slot: 10, Speed: 30}, {Road: 1, Slot: 10, Speed: 40}} {
		if err := c.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if c.First(11) != 1 || c.First(10) != 2 || c.Mark(10) != 3 {
		t.Errorf("first marks 11:%d 10:%d, mark 10:%d; want 1, 2, 3", c.First(11), c.First(10), c.Mark(10))
	}
	c.Reset(10)
	if c.First(10) != 0 {
		t.Errorf("first mark %d after Reset, want 0", c.First(10))
	}
	if err := c.Add(Report{Road: 0, Slot: 10, Speed: 30}); err != nil {
		t.Fatal(err)
	}
	if c.First(10) != 4 || c.First(11) != 1 {
		t.Errorf("first marks after refill 10:%d 11:%d, want 4 and 1", c.First(10), c.First(11))
	}
}

// TestCollectorClockAndMetrics covers the observability seams added to the
// collector: a FakeClock makes LastReport deterministic, and SetMetrics wires
// accepted/rejected counters that agree with TotalReports.
func TestCollectorClockAndMetrics(t *testing.T) {
	c := NewCollector(4)
	start := time.Unix(1_700_000_000, 0)
	fc := obs.NewFakeClock(start, time.Second)
	c.SetClock(fc)

	reg := obs.NewRegistry()
	m := obs.StreamMetrics{
		Accepted: reg.Counter("acc_total", ""),
		Rejected: reg.Counter("rej_total", ""),
	}
	c.SetMetrics(m)

	if _, ok := c.LastReport(); ok {
		t.Fatal("LastReport ok before any report")
	}
	if err := c.Add(Report{Road: 0, Slot: 5, Speed: 40}); err != nil {
		t.Fatal(err)
	}
	last, ok := c.LastReport()
	if !ok || !last.Equal(start) {
		t.Errorf("LastReport = %v, %v; want %v", last, ok, start)
	}
	if err := c.Add(Report{Road: 1, Slot: 5, Speed: 41}); err != nil {
		t.Fatal(err)
	}
	// The FakeClock advances one step per Now(): second accept lands at +1s.
	if last, _ = c.LastReport(); !last.Equal(start.Add(time.Second)) {
		t.Errorf("LastReport after second add = %v, want %v", last, start.Add(time.Second))
	}

	// Rejections: bad road, bad slot, implausible speed.
	for _, r := range []Report{
		{Road: 99, Slot: 5, Speed: 40},
		{Road: 0, Slot: -1, Speed: 40},
		{Road: 0, Slot: 5, Speed: -3},
	} {
		if err := c.Add(r); err == nil {
			t.Fatalf("report %+v should be rejected", r)
		}
	}
	if v := m.Accepted.Value(); v != 2 {
		t.Errorf("accepted = %d, want 2", v)
	}
	if v := m.Rejected.Value(); v != 3 {
		t.Errorf("rejected = %d, want 3", v)
	}
	if c.TotalReports() != int(m.Accepted.Value()) {
		t.Errorf("TotalReports %d != accepted counter %d", c.TotalReports(), m.Accepted.Value())
	}
	// Rejections must not advance the staleness clock.
	if last2, _ := c.LastReport(); !last2.Equal(start.Add(time.Second)) {
		t.Error("rejected report moved LastReport")
	}

	// SetClock(nil) restores the system clock without disturbing state.
	c.SetClock(nil)
	if err := c.Add(Report{Road: 2, Slot: 6, Speed: 50}); err != nil {
		t.Fatal(err)
	}
	if m.Accepted.Value() != 3 {
		t.Errorf("accepted after clock reset = %d, want 3", m.Accepted.Value())
	}
}
