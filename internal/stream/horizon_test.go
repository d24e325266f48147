package stream

import (
	"testing"

	"repro/internal/tslot"
)

func TestCollectorHorizonEviction(t *testing.T) {
	c := NewCollector(10)
	c.SetHorizon(2)
	if c.Horizon() != 2 {
		t.Fatalf("horizon %d", c.Horizon())
	}

	// Reports at slots 10, 11, 12: all inside the window around 12.
	for _, s := range []tslot.Slot{10, 11, 12} {
		if err := c.Add(Report{Road: 1, Slot: s, Speed: 50}); err != nil {
			t.Fatal(err)
		}
	}
	if c.SlotCount() != 3 {
		t.Fatalf("slot count %d before eviction", c.SlotCount())
	}

	// A report at slot 20 pushes slots 10/11/12 out of the ±2 window.
	if err := c.Add(Report{Road: 2, Slot: 20, Speed: 40}); err != nil {
		t.Fatal(err)
	}
	if c.SlotCount() != 1 {
		t.Errorf("slot count %d after horizon eviction, want 1", c.SlotCount())
	}
	if c.Count(10, 1) != 0 || c.Count(20, 2) != 1 {
		t.Error("wrong buckets evicted")
	}
	slots, reports := c.Evicted()
	if slots != 3 || reports != 3 {
		t.Errorf("evicted (%d slots, %d reports), want (3, 3)", slots, reports)
	}
	// TotalReports is monotonic — eviction does not rewrite history.
	if c.TotalReports() != 4 {
		t.Errorf("total reports %d, want 4", c.TotalReports())
	}
}

func TestCollectorHorizonCyclicDistance(t *testing.T) {
	c := NewCollector(4)
	c.SetHorizon(3)
	// Slot 287 and slot 1 are cyclically 2 apart — the midnight wrap must not
	// evict the other side of the day boundary.
	if err := c.Add(Report{Road: 0, Slot: 287, Speed: 30}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(Report{Road: 0, Slot: 1, Speed: 30}); err != nil {
		t.Fatal(err)
	}
	if c.SlotCount() != 2 {
		t.Errorf("midnight-adjacent slots evicted: %d slots", c.SlotCount())
	}
	if s, _ := c.Evicted(); s != 0 {
		t.Errorf("evicted %d slots across the wrap", s)
	}
}

func TestCollectorHorizonDisabledByDefault(t *testing.T) {
	c := NewCollector(4)
	if c.Horizon() != 0 {
		t.Fatalf("default horizon %d", c.Horizon())
	}
	for s := tslot.Slot(0); s < 50; s += 10 {
		if err := c.Add(Report{Road: 0, Slot: s, Speed: 30}); err != nil {
			t.Fatal(err)
		}
	}
	if c.SlotCount() != 5 {
		t.Errorf("unbounded collector evicted: %d slots", c.SlotCount())
	}
	// Enabling a horizon retroactively prunes on the next SetHorizon/Add.
	c.SetHorizon(1)
	if c.SlotCount() != 1 {
		t.Errorf("SetHorizon did not prune: %d slots", c.SlotCount())
	}
	// Negative values clamp to disabled.
	c.SetHorizon(-5)
	if c.Horizon() != 0 {
		t.Errorf("negative horizon stored as %d", c.Horizon())
	}
}

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
// to 0 on Reset and on eviction, and never repeats an earlier non-zero
// value.
func TestCollectorMark(t *testing.T) {
	c := NewCollector(4)
	c.SetHorizon(2)
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
	// A report five slots on evicts slots 10 and 11 (horizon 2).
	add(Report{Road: 0, Slot: 16, Speed: 30})
	if c.Mark(10) != 0 || c.Mark(11) != 0 {
		t.Errorf("marks after eviction: slot 10 %d, slot 11 %d, want 0", c.Mark(10), c.Mark(11))
	}
	add(Report{Road: 0, Slot: 10, Speed: 30})
	if c.Mark(16) != 0 {
		t.Errorf("slot 16 evicted by the report at 10 kept mark %d", c.Mark(16))
	}
}
