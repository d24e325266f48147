package core

import (
	"testing"

	"repro/internal/rtf"
	"repro/internal/tslot"
)

// TestSwapModelFlushesOracles asserts that no stale correlation row survives
// a hot-swap: after SwapModel, the slot oracle must answer from the NEW
// model's ρ, matching a system built fresh from that model — not the rows the
// old cache had memoized.
func TestSwapModelFlushesOracles(t *testing.T) {
	f := newFixture(t, 24, 3, 41)
	slot := tslot.Slot(80)
	edge := f.sys.Model().Edges()[0]
	src := edge[0]

	// Populate the cache with the old model's rows.
	before := append([]float64(nil), f.sys.Oracle(slot).CorrRow(src)...)

	// New model: move every ρ at the slot so the correlation field changes.
	next := f.sys.Model().Clone()
	for _, e := range next.Edges() {
		old := next.Rho(slot, e[0], e[1])
		next.SetRho(slot, e[0], e[1], 0.5*old+0.45)
	}
	oldGen, newGen, err := f.sys.SwapModel(next, []tslot.Slot{slot})
	if err != nil {
		t.Fatal(err)
	}
	if newGen != oldGen+1 {
		t.Errorf("generation %d → %d, want +1", oldGen, newGen)
	}
	if f.sys.Swaps() != 1 {
		t.Errorf("swap counter %d, want 1", f.sys.Swaps())
	}

	after := f.sys.Oracle(slot).CorrRow(src)
	// Ground truth: a system constructed directly from the new model.
	fresh, err := NewFromModel(f.net, next, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Oracle(slot).CorrRow(src)
	diffs := 0
	for j := range after {
		if after[j] != want[j] {
			t.Fatalf("road %d: post-swap corr %v != fresh-system corr %v (stale row served)", j, after[j], want[j])
		}
		if after[j] != before[j] {
			diffs++
		}
	}
	if diffs == 0 {
		t.Error("correlation row identical before and after a ρ-changing swap — cache was not flushed")
	}

	// Nil and mismatched models are refused without disturbing the serving state.
	if _, _, err := f.sys.SwapModel(nil, nil); err == nil {
		t.Error("nil model swapped")
	}
	small := newFixture(t, 12, 2, 42)
	if _, _, err := f.sys.SwapModel(small.sys.Model(), nil); err == nil {
		t.Error("wrong-shape model swapped")
	}
	if f.sys.ModelVersion() != newGen {
		t.Error("refused swap disturbed the generation")
	}
}

// TestSwapModelCountersMonotonic asserts the oracle-cache counters survive a
// flush: hits/misses accumulated before the swap fold into the retired block
// instead of resetting to zero.
func TestSwapModelCountersMonotonic(t *testing.T) {
	f := newFixture(t, 20, 3, 43)
	for i := 0; i < 5; i++ {
		f.sys.Oracle(tslot.Slot(10 + i)).CorrRow(0)
		f.sys.Oracle(tslot.Slot(10 + i)).CorrRow(0)
	}
	pre := f.sys.OracleCacheReport()
	if pre.Misses == 0 {
		t.Fatal("warm-up produced no misses")
	}
	if _, _, err := f.sys.SwapModel(f.sys.Model().Clone(), nil); err != nil {
		t.Fatal(err)
	}
	post := f.sys.OracleCacheReport()
	if post.Hits < pre.Hits || post.Misses < pre.Misses {
		t.Errorf("counters regressed across swap: %+v → %+v", pre, post)
	}
	if post.ResidentRows != 0 {
		t.Errorf("%d resident rows right after a flush", post.ResidentRows)
	}
}

// TestSwapModelPrewarm asserts the requested slots are warm (resident) in the
// new cache immediately after the swap.
func TestSwapModelPrewarm(t *testing.T) {
	f := newFixture(t, 20, 3, 44)
	warm := []tslot.Slot{30, 31}
	if _, _, err := f.sys.SwapModel(f.sys.Model().Clone(), warm); err != nil {
		t.Fatal(err)
	}
	rep := f.sys.OracleCacheReport()
	if rep.ResidentOracles < len(warm) {
		t.Errorf("%d resident oracles after pre-warming %d slots", rep.ResidentOracles, len(warm))
	}
}

// TestSwapModelReplacesServingPointer is the generation sanity check: the
// swap installs the exact model pointer passed in and retires the old one.
func TestSwapModelReplacesServingPointer(t *testing.T) {
	f := newFixture(t, 16, 2, 46)
	before := f.sys.Model()
	next := before.Clone()
	next.SetMu(60, 0, next.Mu(60, 0)+25)
	if _, _, err := f.sys.SwapModel(next, nil); err != nil {
		t.Fatal(err)
	}
	if f.sys.Model() == before {
		t.Fatal("swap did not replace the serving model")
	}
	if f.sys.Model() != next {
		t.Fatal("swap installed a different model than the one passed")
	}
}

// BenchmarkSwapModel times one hot-swap with a one-slot oracle pre-warm on an
// 80-road system. Two prebuilt clones alternate so no clone is timed.
func BenchmarkSwapModel(b *testing.B) {
	f := newFixture(b, 80, 4, 47)
	models := []*rtf.Model{f.sys.Model().Clone(), f.sys.Model().Clone()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := tslot.Slot(i % tslot.PerDay)
		if _, _, err := f.sys.SwapModel(models[i%2], []tslot.Slot{slot}); err != nil {
			b.Fatal(err)
		}
	}
}
