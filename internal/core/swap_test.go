package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/crowd"
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

// TestHotSwapRaceUnderLoad is the acceptance test for zero-downtime swaps: 32
// concurrent fault-tolerant Query clients hammer the system while the main
// goroutine hot-swaps model clones; every query must succeed (no torn state,
// no nil fields, no stalls) under the race detector.
func TestHotSwapRaceUnderLoad(t *testing.T) {
	f := newFixture(t, 24, 3, 45)
	day := f.hist.Days - 1
	pool := crowd.PlaceEverywhere(f.net)

	const clients = 32
	const queriesPerClient = 4
	var failed atomic.Int64
	var done atomic.Bool
	var wg sync.WaitGroup

	// Swapper: keep replacing the model with perturbed clones until all
	// clients finish.
	swapperDone := make(chan struct{})
	go func() {
		defer close(swapperDone)
		for i := 0; !done.Load(); i++ {
			next := f.sys.Model().Clone()
			slot := tslot.Slot((90 + i) % int(tslot.PerDay))
			for r := 0; r < next.N(); r++ {
				next.SetMu(slot, r, next.Mu(slot, r)+0.01)
			}
			if _, _, err := f.sys.SwapModel(next, []tslot.Slot{slot}); err != nil {
				t.Errorf("swap %d: %v", i, err)
				return
			}
		}
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for q := 0; q < queriesPerClient; q++ {
				slot := tslot.Slot(90 + (c+q)%8)
				camp := crowd.DefaultCampaign(int64(c*100 + q))
				res, err := f.sys.Query(context.Background(), QueryRequest{
					Slot:   slot,
					Roads:  []int{c % f.net.N(), (c + 7) % f.net.N()},
					Budget: 12, Theta: 0.9,
					Workers: pool,
					Truth:   f.truth(day, slot),
					Seed:    int64(c*100 + q),
					Rounds:  2, Campaign: &camp,
				})
				if err != nil || res == nil || res.Speeds == nil {
					failed.Add(1)
					t.Errorf("client %d query %d failed: %v", c, q, err)
				}
			}
		}(c)
	}
	wg.Wait()
	done.Store(true)
	<-swapperDone

	if n := failed.Load(); n != 0 {
		t.Fatalf("%d queries failed during hot-swaps", n)
	}
	if f.sys.Swaps() == 0 {
		t.Fatal("swapper never swapped — test exercised nothing")
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
