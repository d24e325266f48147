package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/crowd"
	"repro/internal/tslot"
)

// TestOracleLRUEviction pins the entry budget: with capacity 2, touching 3
// slots evicts the least recently used and the report says so.
func TestOracleLRUEviction(t *testing.T) {
	f := newFixture(t, 20, 4, 3)
	cfg := DefaultConfig()
	cfg.OracleCacheSlots = 2
	sys, err := NewFromModel(f.net, f.sys.Model(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	oA := sys.Oracle(10)
	oA.CorrRow(0) // make slot 10's oracle hold a row
	sys.Oracle(11)
	sys.Oracle(12) // evicts slot 10

	rep := sys.OracleCacheReport()
	if rep.ResidentOracles != 2 {
		t.Errorf("resident oracles = %d, want 2", rep.ResidentOracles)
	}
	if rep.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", rep.Evictions)
	}
	// Slot 10's miss counter survives eviction in the retired accumulator.
	if rep.Misses != 1 {
		t.Errorf("misses = %d, want the evicted oracle's Dijkstra retained", rep.Misses)
	}
	// Re-requesting slot 10 rebuilds a fresh oracle (cold rows).
	oA2 := sys.Oracle(10)
	if oA2 == oA {
		t.Error("evicted oracle instance was returned again")
	}
	if got := sys.OracleCacheReport(); got.Evictions != 2 {
		t.Errorf("evictions after re-request = %d, want 2 (slot 11 evicted)", got.Evictions)
	}
}

// TestOracleLRUByteBudget forces evictions through the resident-byte budget.
// The budget is derived from one oracle's exact measured footprint (rows plus
// the oracle's flat half-edge weight array), so the test tracks the
// byte-accurate accounting instead of assuming rows-only estimates.
func TestOracleLRUByteBudget(t *testing.T) {
	f := newFixture(t, 30, 4, 4)
	// Measure the exact footprint of a single oracle holding two rows.
	probe, err := NewFromModel(f.net, f.sys.Model(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	po := probe.Oracle(0)
	po.CorrRow(0)
	po.CorrRow(1)
	one := probe.OracleCacheReport().ResidentBytes
	if one <= 0 {
		t.Fatalf("probe oracle footprint = %d", one)
	}

	cfg := DefaultConfig()
	cfg.OracleCacheBytes = one + one/2 // room for one oracle, not two
	sys, err := NewFromModel(f.net, f.sys.Model(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for slot := tslot.Slot(0); slot < 6; slot++ {
		o := sys.Oracle(slot)
		o.CorrRow(0)
		o.CorrRow(1)
	}
	rep := sys.OracleCacheReport()
	if rep.Evictions == 0 {
		t.Fatalf("byte budget never evicted: %+v", rep)
	}
	if rep.ResidentBytes > cfg.OracleCacheBytes+one {
		// The MRU entry is always kept, so the budget can overshoot by at
		// most one oracle's footprint.
		t.Errorf("resident bytes %d far above budget %d", rep.ResidentBytes, cfg.OracleCacheBytes)
	}
	if rep.ResidentOracles >= 6 {
		t.Errorf("no oracle was evicted: %d resident", rep.ResidentOracles)
	}
}

// TestOracleCacheHitRate sanity-checks the aggregated hit-rate computation.
func TestOracleCacheHitRate(t *testing.T) {
	f := newFixture(t, 20, 4, 5)
	o := f.sys.Oracle(50)
	o.CorrRow(3)
	o.CorrRow(3)
	o.CorrRow(3)
	rep := f.sys.OracleCacheReport()
	if rep.Misses != 1 || rep.Hits != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", rep.Hits, rep.Misses)
	}
	if rep.HitRate < 0.66 || rep.HitRate > 0.67 {
		t.Errorf("hit rate = %v, want 2/3", rep.HitRate)
	}
}

// TestConcurrentQueryMixedSlots hammers one System with concurrent full
// queries across more slots than the LRU holds, under -race: exercises the
// singleflight row cache, the parallel OCS rounds, and LRU eviction under
// load simultaneously.
func TestConcurrentQueryMixedSlots(t *testing.T) {
	f := newFixture(t, 40, 5, 6)
	cfg := DefaultConfig()
	cfg.OracleCacheSlots = 3
	sys, err := NewFromModel(f.net, f.sys.Model(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := crowd.PlaceEverywhere(f.net)
	slots := []tslot.Slot{20, 21, 22, 23, 24, 25}
	query := []int{1, 5, 9, 13, 17, 21}

	const goroutines = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				slot := slots[(g+i)%len(slots)]
				res, err := sys.Query(context.Background(), QueryRequest{
					Slot:    slot,
					Roads:   query,
					Budget:  12,
					Theta:   0.92,
					Workers: pool,
					Seed:    int64(g*100 + i),
					Truth:   f.truth(3, slot),
				})
				if err != nil {
					errs <- err
					return
				}
				if len(res.QuerySpeeds) != len(query) {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	rep := sys.OracleCacheReport()
	if rep.Evictions == 0 {
		t.Errorf("expected LRU evictions with 6 slots over capacity 3: %+v", rep)
	}
	if rep.ResidentOracles > 3 {
		t.Errorf("resident oracles %d exceed capacity 3", rep.ResidentOracles)
	}
	if rep.Misses == 0 || rep.Hits == 0 {
		t.Errorf("cache counters flat: %+v", rep)
	}
}
