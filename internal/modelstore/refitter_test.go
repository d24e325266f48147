package modelstore

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/tslot"
)

// newBatcher builds the serving Batcher whose collector and filter a
// refitter reads. Its filter stays at slot 0 unless a test reports through
// Batcher.Report, so every other slot is closed.
func newBatcher(tb testing.TB, f *fixture) *core.Batcher {
	tb.Helper()
	b, err := core.NewBatcher(f.sys)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// feedSlot pushes three reports per road into the collector for one slot,
// drawn from the recorded day's truth with deterministic jitter.
func feedSlot(tb testing.TB, f *fixture, col *stream.Collector, day int, slot tslot.Slot) {
	tb.Helper()
	for r := 0; r < f.net.N(); r++ {
		truth := f.hist.At(day, slot, r)
		for k := 0; k < 3; k++ {
			v := truth * (1 + 0.01*float64(k-1))
			if v < 0 {
				v = 0
			}
			if err := col.Add(stream.Report{Road: r, Slot: slot, Speed: v}); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// TestRefitDrill is the full lifecycle drill: bootstrap publish → streamed
// reports → background refit (fold, gate, publish, hot-swap) → corrupted
// candidate refused with the live model untouched → operator rollback →
// reload forward. This is the `make refit-drill` target.
func TestRefitDrill(t *testing.T) {
	f := newFixture(t, 20, 4, 9)
	store := openStore(t)
	mgr, err := NewManager(f.sys, store)
	if err != nil {
		t.Fatal(err)
	}

	// 1. Bootstrap: publish the offline fit as v1.
	gen0 := f.sys.ModelVersion()
	i1, gr, err := mgr.Publish(f.model().Clone(), Meta{Source: "offline-fit"}, nil)
	if err != nil {
		t.Fatalf("bootstrap publish: %v (gate %+v)", err, gr)
	}
	if i1.Version != 1 {
		t.Fatalf("bootstrap got v%d", i1.Version)
	}
	if f.sys.ModelVersion() <= gen0 {
		t.Error("publish did not bump the serving model generation")
	}

	// 2. Stream two slots' reports and refit. One 20-road slot holds out
	// 5 observations, below minHoldout; two hold out 10.
	b := newBatcher(t, f)
	col := b.Collector()
	day := f.hist.Days - 1
	slot := tslot.Slot(102)
	feedSlot(t, f, col, day, slot)
	feedSlot(t, f, col, day, slot+1)
	refitter, err := NewRefitter(mgr, b, RefitterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := refitter.RefitOnce()
	if err != nil {
		t.Fatalf("refit: %v (report %+v)", err, rep)
	}
	if !rep.Published || rep.Version != 2 {
		t.Fatalf("refit did not publish v2: %+v", rep)
	}
	if rep.SlotsFolded != 2 || rep.RoadsFolded == 0 {
		t.Errorf("fold accounting: %+v", rep)
	}
	if col.SlotCount() != 2 {
		t.Errorf("the refit left %d slots, want the 2 it folded: it only reads the collector", col.SlotCount())
	}
	if cur, _ := store.Current(); cur.Version != 2 {
		t.Errorf("store current v%d after refit", cur.Version)
	}
	st := mgr.Status()
	if st.Published != 2 || st.CurrentVersion != 2 {
		t.Errorf("status after refit: %+v", st)
	}
	// The refit moved μ toward the streamed observations at the folded slot.
	base, _, err := store.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for r := 0; r < f.net.N(); r++ {
		if f.sys.Model().Mu(slot, r) != base.Mu(slot, r) {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("refit left every μ at the folded slot unchanged")
	}

	// 3. A corrupted candidate must never reach the serving path.
	genBefore := f.sys.ModelVersion()
	bad := f.sys.Model().Clone()
	bad.SetMu(slot, 0, math.NaN())
	_, gr, err = mgr.Publish(bad, Meta{Source: "test"}, nil)
	if !errors.Is(err, ErrGateRefused) {
		t.Fatalf("corrupt candidate: err=%v, want ErrGateRefused", err)
	}
	if !gr.Refused {
		t.Error("gate result not marked refused")
	}
	if f.sys.ModelVersion() != genBefore {
		t.Error("refused candidate was swapped in")
	}
	if math.IsNaN(f.sys.Model().Mu(slot, 0)) {
		t.Error("live model carries the candidate's NaN")
	}
	if len(store.Versions()) != 2 {
		t.Error("refused candidate was persisted")
	}
	st = mgr.Status()
	if st.Rejected != 1 {
		t.Errorf("rejected counter %d, want 1", st.Rejected)
	}

	// 4. Operator rollback to the pre-refit model.
	info, err := mgr.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 {
		t.Fatalf("rollback landed on v%d", info.Version)
	}
	sameParams(t, base, f.sys.Model())
	st = mgr.Status()
	if st.Rollbacks != 1 || st.CurrentVersion != 1 {
		t.Errorf("status after rollback: %+v", st)
	}

	// 5. Roll forward again via SetCurrent + Reload.
	if _, err := store.SetCurrent(2); err != nil {
		t.Fatal(err)
	}
	info, err = mgr.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 {
		t.Fatalf("reload served v%d", info.Version)
	}
	v2, _, err := store.Load(2)
	if err != nil {
		t.Fatal(err)
	}
	sameParams(t, v2, f.sys.Model())
}

func TestRefitOnceEmptyCollectorSkips(t *testing.T) {
	f := newFixture(t, 12, 2, 13)
	mgr, err := NewManager(f.sys, openStore(t))
	if err != nil {
		t.Fatal(err)
	}
	refitter, err := NewRefitter(mgr, newBatcher(t, f), RefitterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := refitter.RefitOnce()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Skipped || rep.Published {
		t.Errorf("empty refit: %+v", rep)
	}
	if _, attempts := refitter.LastReport(); attempts != 1 {
		t.Errorf("attempts %d, want 1", attempts)
	}
}

// TestRefitOnceThinHoldoutSkips: a fold whose holdout is below minHoldout
// publishes nothing and keeps its reports, the way an empty collector skips;
// with a second slot the holdout is large enough and the refit publishes.
func TestRefitOnceThinHoldoutSkips(t *testing.T) {
	f := newFixture(t, 20, 4, 9)
	mgr, err := NewManager(f.sys, openStore(t))
	if err != nil {
		t.Fatal(err)
	}
	b := newBatcher(t, f)
	feedSlot(t, f, b.Collector(), f.hist.Days-1, 102)
	refitter, err := NewRefitter(mgr, b, RefitterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := refitter.RefitOnce()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Skipped || rep.Published || rep.HoldoutObs >= minHoldout {
		t.Errorf("thin-holdout refit: %+v", rep)
	}
	if got := b.Collector().SlotCount(); got != 1 {
		t.Errorf("skipped refit left %d slots, want the 1 it could not fold", got)
	}
	feedSlot(t, f, b.Collector(), f.hist.Days-1, 103)
	if rep, err = refitter.RefitOnce(); err != nil || !rep.Published || rep.SlotsFolded != 2 {
		t.Errorf("refit over two slots: %+v, %v", rep, err)
	}
}

// TestRefitOnceKeepsOpenSlots: a refit folds only the slots the filter has
// left, so the slot being served stays out of the fold, and it resets none.
func TestRefitOnceKeepsOpenSlots(t *testing.T) {
	f := newFixture(t, 20, 4, 9)
	mgr, err := NewManager(f.sys, openStore(t))
	if err != nil {
		t.Fatal(err)
	}
	b := newBatcher(t, f)
	day := f.hist.Days - 1
	feedSlot(t, f, b.Collector(), day, 100)
	feedSlot(t, f, b.Collector(), day, 101)
	// One report through the ingest path walks the filter to 110: slots 100
	// and 101 are closed, 110 is the filter's own.
	if err := b.Report(stream.Report{Road: 0, Slot: 110, Speed: f.hist.At(day, 110, 0)}); err != nil {
		t.Fatal(err)
	}
	refitter, err := NewRefitter(mgr, b, RefitterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := refitter.RefitOnce()
	if err != nil || !rep.Published || rep.SlotsFolded != 2 {
		t.Fatalf("refit: %+v, %v", rep, err)
	}
	if got := b.Collector().Slots(); !reflect.DeepEqual(got, []tslot.Slot{100, 101, 110}) {
		t.Errorf("collector holds slots %v after the refit, want [100 101 110]", got)
	}
}

// TestRefitOnceFoldsEachSlotOnce: after a refit publishes, the folded slots
// still serve their reports, and the next refit skips them, a late report
// included. Once the filter's walk has emptied a slot and the slot fills
// again, the refit folds the new day's reports.
func TestRefitOnceFoldsEachSlotOnce(t *testing.T) {
	f := newFixture(t, 20, 4, 9)
	mgr, err := NewManager(f.sys, openStore(t))
	if err != nil {
		t.Fatal(err)
	}
	b := newBatcher(t, f)
	col := b.Collector()
	day := f.hist.Days - 1
	feedSlot(t, f, col, day, 102)
	feedSlot(t, f, col, day, 103)
	refitter, err := NewRefitter(mgr, b, RefitterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := refitter.RefitOnce(); err != nil || !rep.Published || rep.SlotsFolded != 2 {
		t.Fatalf("first refit: %+v, %v", rep, err)
	}
	for _, slot := range []tslot.Slot{102, 103} {
		if got := len(col.Observations(slot)); got != f.net.N() {
			t.Errorf("folded slot %v serves %d roads, want %d", slot, got, f.net.N())
		}
	}
	if err := col.Add(stream.Report{Road: 0, Slot: 102, Speed: 50}); err != nil {
		t.Fatal(err)
	}
	if rep, err := refitter.RefitOnce(); err != nil || !rep.Skipped || rep.Published {
		t.Errorf("refit over folded slots: %+v, %v", rep, err)
	}
	// The next day, reports through the ingest path: the first one at 102
	// jumps the filter there and empties 102 and 103, and one at 104 walks
	// it on, so 102 and 103 hold only the new day's reports.
	for _, slot := range []tslot.Slot{102, 103} {
		for r := 0; r < f.net.N(); r++ {
			if err := b.Report(stream.Report{Road: r, Slot: slot, Speed: f.hist.At(day-1, slot, r)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.Report(stream.Report{Road: 0, Slot: 104, Speed: f.hist.At(day-1, 104, 0)}); err != nil {
		t.Fatal(err)
	}
	if rep, err := refitter.RefitOnce(); err != nil || !rep.Published || rep.SlotsFolded != 2 {
		t.Errorf("refit over the next day's reports: %+v, %v", rep, err)
	}
}

// TestRefitOnceConcurrent: eight concurrent refits over the same closed
// slots publish exactly one version; the others find nothing left to fold.
// make refit-drill runs it under the race detector.
func TestRefitOnceConcurrent(t *testing.T) {
	f := newFixture(t, 20, 4, 9)
	mgr, err := NewManager(f.sys, openStore(t))
	if err != nil {
		t.Fatal(err)
	}
	b := newBatcher(t, f)
	feedSlot(t, f, b.Collector(), f.hist.Days-1, 102)
	feedSlot(t, f, b.Collector(), f.hist.Days-1, 103)
	refitter, err := NewRefitter(mgr, b, RefitterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var published atomic.Int32
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := refitter.RefitOnce()
			if err != nil {
				t.Error(err)
			}
			if rep.Published {
				published.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := published.Load(); got != 1 {
		t.Errorf("8 concurrent refits published %d versions, want 1", got)
	}
	if st := mgr.Status(); st.Published != 1 {
		t.Errorf("manager counts %d publishes, want 1", st.Published)
	}
}

func TestRefitterBackgroundLoop(t *testing.T) {
	f := newFixture(t, 12, 2, 13)
	mgr, err := NewManager(f.sys, openStore(t))
	if err != nil {
		t.Fatal(err)
	}
	refitter, err := NewRefitter(mgr, newBatcher(t, f), RefitterConfig{Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	refitter.Start()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, attempts := refitter.LastReport(); attempts > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background loop never attempted a refit")
		}
		time.Sleep(time.Millisecond)
	}
	refitter.Stop()
	refitter.Stop() // idempotent
}

func TestRefitterStopWithoutStart(t *testing.T) {
	f := newFixture(t, 12, 2, 13)
	mgr, err := NewManager(f.sys, openStore(t))
	if err != nil {
		t.Fatal(err)
	}
	refitter, err := NewRefitter(mgr, newBatcher(t, f), RefitterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { refitter.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Stop without Start blocked")
	}
}

func TestHoldoutRoadSplit(t *testing.T) {
	// The deterministic split must be stable and roughly 1/mod sized.
	mod := 4
	var held int
	total := 2000
	for r := 0; r < total; r++ {
		if holdoutRoad(100, r, mod) != holdoutRoad(100, r, mod) {
			t.Fatal("split not deterministic")
		}
		if holdoutRoad(100, r, mod) {
			held++
		}
	}
	frac := float64(held) / float64(total)
	if frac < 0.15 || frac > 0.35 {
		t.Errorf("holdout fraction %.3f far from 1/%d", frac, mod)
	}
}
