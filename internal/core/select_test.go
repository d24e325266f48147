package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/network"
	"repro/internal/rtf"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

// metroWorld is a generated metro network with its fitted model; systems
// built over it share nothing else, so each starts with empty oracles.
type metroWorld struct {
	net   *network.Network
	model *rtf.Model
}

// Each metro world is generated once per process: tests and benchmark probes
// build fresh systems over it.
var (
	metro5k   = sync.OnceValues(func() (metroWorld, error) { return newMetroWorld(5000) })
	metro100k = sync.OnceValues(func() (metroWorld, error) { return newMetroWorld(100_000) })
)

func newMetroWorld(roads int) (metroWorld, error) {
	net := network.Metro(network.MetroOptions{Roads: roads, Seed: 7})
	model, _, err := speedgen.MetroModel(net, speedgen.MetroConfig{Seed: 8})
	return metroWorld{net: net, model: model}, err
}

// world returns a generated metro world, failing tb if generation failed.
func world(tb testing.TB, gen func() (metroWorld, error)) metroWorld {
	tb.Helper()
	w, err := gen()
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// system builds a fresh serving system over the world.
func (w metroWorld) system(tb testing.TB) *System {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.OracleCacheSlots = 8
	cfg.OracleCacheBytes = 128 << 20
	sys, err := NewFromModel(w.net, w.model, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// dispatchRequest is the paper's dispatch select (K = 30, θ = 0.92, Hybrid)
// of 33 distinct query roads over 2000 distinct worker roads, drawn from rng.
func dispatchRequest(rng *rand.Rand, n int, t tslot.Slot) SelectRequest {
	return SelectRequest{
		Slot:        t,
		Roads:       rng.Perm(n)[:33],
		WorkerRoads: rng.Perm(n)[:2000],
		Budget:      30,
		Theta:       0.92,
		Selector:    Hybrid,
	}
}

// TestSelectValidatesBeforeWarm checks that a malformed select is refused
// before any correlation row is computed, and that an out-of-range slot is an
// error rather than a panic, on System.Select and Batcher.Select alike.
func TestSelectValidatesBeforeWarm(t *testing.T) {
	w := world(t, metro5k)
	rng := rand.New(rand.NewSource(1))
	const slot = tslot.Slot(100)
	for _, tc := range []struct {
		name string
		edit func(*SelectRequest)
	}{
		{"budget 0", func(r *SelectRequest) { r.Budget = 0 }},
		{"theta 0", func(r *SelectRequest) { r.Theta = 0 }},
		{"theta NaN", func(r *SelectRequest) { r.Theta = math.NaN() }},
		{"unknown selector", func(r *SelectRequest) { r.Selector = Selector(42) }},
		{"slot 288", func(r *SelectRequest) { r.Slot = tslot.PerDay }},
		{"slot -1", func(r *SelectRequest) { r.Slot = -1 }},
	} {
		req := dispatchRequest(rng, w.net.N(), slot)
		tc.edit(&req)
		sys := w.system(t)
		b, err := NewBatcher(sys, BatcherOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Select(req); err == nil {
			t.Errorf("%s: System.Select accepted the request", tc.name)
		}
		if _, err := b.Select(context.Background(), req); err == nil {
			t.Errorf("%s: Batcher.Select accepted the request", tc.name)
		}
		if m := sys.Oracle(slot).Stats().Misses; m != 0 {
			t.Errorf("%s: %d correlation rows computed for a refused request", tc.name, m)
		}
	}
}

// TestSelectComputesOnlyQueryRows pins the θ-redundancy mechanism without
// timing: a Hybrid select on a fresh slot computes one correlation row per
// distinct query road and none for the roads it selects, whose redundancy
// the label-limited query answers.
func TestSelectComputesOnlyQueryRows(t *testing.T) {
	w := world(t, metro5k)
	rng := rand.New(rand.NewSource(2))
	for _, t0 := range []tslot.Slot{84, 200} {
		sys := w.system(t)
		req := dispatchRequest(rng, w.net.N(), t0)
		req.Roads = append(req.Roads, req.Roads[:3]...) // duplicates cost no row
		sol, err := sys.Select(req)
		if err != nil {
			t.Fatal(err)
		}
		if len(sol.Roads) < 2 {
			t.Fatalf("slot %d: selected %d roads; the check needs a multi-road selection", t0, len(sol.Roads))
		}
		st := sys.Oracle(t0).Stats()
		if st.Misses != 33 || st.InflightWaits != 0 {
			t.Errorf("slot %d: %d rows computed and %d in-flight waits for 33 distinct query roads and %d selected; want 33 and 0",
				t0, st.Misses, st.InflightWaits, len(sol.Roads))
		}
	}
}

// BenchmarkSelectMetro100k is one dispatch select on the 100k-road metro: 33
// fresh query roads on a fresh slot, so every query row is computed, through
// the public System.Select. Run with -benchmem.
func BenchmarkSelectMetro100k(b *testing.B) {
	w := world(b, metro100k)
	sys := w.system(b)
	rng := rand.New(rand.NewSource(1))
	reqs := make([]SelectRequest, b.N)
	for i := range reqs {
		reqs[i] = dispatchRequest(rng, w.net.N(), tslot.Slot(i%tslot.PerDay))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Select(reqs[i]); err != nil {
			b.Fatal(err)
		}
	}
}
