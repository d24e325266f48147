package core

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/crowd"
	"repro/internal/gsp"
	"repro/internal/obs"
	"repro/internal/ocs"
	"repro/internal/qos"
	"repro/internal/tslot"
)

// instrumented attaches a fresh pipeline to a fresh system over the fixture's
// model, so each measurement starts from zeroed counters and a cold cache.
func instrumented(tb testing.TB, f *fixture) (*System, *obs.Pipeline) {
	tb.Helper()
	sys, err := NewFromModel(f.net, f.sys.Model(), DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	pipe := obs.NewPipeline(obs.NewRegistry(), obs.SystemClock())
	sys.Instrument(pipe)
	return sys, pipe
}

func TestBatcherValidation(t *testing.T) {
	if _, err := NewBatcher(nil); err == nil {
		t.Error("nil system accepted")
	}
}

// TestBatcherEstimateWarmStart checks the singleflight + warm-start estimate
// path: the second estimate for a slot must be warm-started from the first
// and converge with no more sweeps than the cold pass.
func TestBatcherEstimateWarmStart(t *testing.T) {
	f := newFixture(t, 60, 5, 44)
	slot := tslot.Slot(30)
	sys, pipe := instrumented(t, f)
	b, err := NewBatcher(sys)
	if err != nil {
		t.Fatal(err)
	}
	truth := f.truth(f.hist.Days-1, slot)
	obsA := map[int]float64{}
	for r := 0; r < f.net.N(); r += 6 {
		obsA[r] = truth(r)
	}
	cold, err := b.Estimate(context.Background(), slot, obsA)
	if err != nil {
		t.Fatal(err)
	}
	if cold.WarmStarted {
		t.Error("first estimate flagged warm")
	}
	// Same observations, new value on one road: incremental re-estimate.
	obsB := make(map[int]float64, len(obsA))
	for r, v := range obsA {
		obsB[r] = v
	}
	obsB[0] += 4
	warm, err := b.Estimate(context.Background(), slot, obsB)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted {
		t.Error("second estimate not warm-started")
	}
	if warm.Iterations > cold.Iterations {
		t.Errorf("warm estimate swept %d > cold %d", warm.Iterations, cold.Iterations)
	}
	if got := pipe.GSP.WarmStarts.Value(); got != 1 {
		t.Errorf("warm-start counter = %d, want 1", got)
	}
	// Equivalence with a cold run over obsB.
	coldB, err := sys.Estimate(context.Background(), slot, obsB)
	if err != nil {
		t.Fatal(err)
	}
	eps := gsp.DefaultOptions().Epsilon
	for i := range coldB.Speeds {
		if math.Abs(coldB.Speeds[i]-warm.Speeds[i]) > 10*eps {
			t.Fatalf("warm estimate diverges at road %d: %v vs %v",
				i, warm.Speeds[i], coldB.Speeds[i])
		}
	}
}

// TestBatcherConcurrentMixedSlots is the -race workout: 32 clients, two to a
// slot, hammer Estimate/Select over 192 slots while estimates warm-start from
// each other and identical selects share a solve. 96 slots are estimated,
// more than the warm-start LRU keeps, so it evicts throughout.
func TestBatcherConcurrentMixedSlots(t *testing.T) {
	f := newFixture(t, 50, 4, 45)
	sys, _ := instrumented(t, f)
	b, err := NewBatcher(sys)
	if err != nil {
		t.Fatal(err)
	}
	pool := crowd.PlaceEverywhere(f.net)
	const clients = 32
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			m := c % 16
			for i := 0; i < 12; i++ {
				slot := tslot.Slot(m*12 + i)
				truth := f.truth(f.hist.Days-1, slot)
				if (m+i)%2 == 0 {
					obs := map[int]float64{c % 50: truth(c % 50), (c + i) % 50: truth((c + i) % 50)}
					if _, err := b.Estimate(context.Background(), slot, obs); err != nil {
						errCh <- err
						return
					}
					continue
				}
				if _, err := b.Select(context.Background(), SelectRequest{
					Slot: slot, Roads: []int{0, 1, 2}, WorkerRoads: pool.Roads(),
					Budget: 10, Theta: 0.9, Seed: int64(m % 3),
				}); err != nil {
					errCh <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	b.prevMu.Lock()
	kept := len(b.prev)
	b.prevMu.Unlock()
	if kept != prevSlots {
		t.Errorf("warm-start LRU keeps %d slots after 96 were estimated, want %d", kept, prevSlots)
	}
}

// followPlanted starts n callers of call against a leader the test planted
// by hand, waits until every one has joined it (Coalesced moved by n),
// checks that none returned while the leader runs, then runs finish, which
// publishes the leader's answer, and returns what each caller got.
func followPlanted[T any](t *testing.T, pipe *obs.Pipeline, n int, call func() (T, error), finish func()) []T {
	t.Helper()
	type answer struct {
		res T
		err error
	}
	c0 := pipe.Batch.Coalesced.Value()
	got := make(chan answer, n)
	for i := 0; i < n; i++ {
		go func() {
			res, err := call()
			got <- answer{res, err}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); pipe.Batch.Coalesced.Value()-c0 < uint64(n); {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d callers joined the leader", pipe.Batch.Coalesced.Value()-c0, n)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case a := <-got:
		t.Fatalf("a follower returned before the leader finished (err %v)", a.err)
	default:
	}
	finish()
	out := make([]T, 0, n)
	for i := 0; i < n; i++ {
		a := <-got
		if a.err != nil {
			t.Fatal(a.err)
		}
		out = append(out, a.res)
	}
	if d := pipe.Batch.Coalesced.Value() - c0; d != uint64(n) {
		t.Errorf("Coalesced moved by %d, want %d", d, n)
	}
	return out
}

// TestEstimateSingleflightShares pins the request-level singleflight of
// Batcher.Estimate: 8 callers of an identical in-flight request block until
// its leader finishes, return its field bit for bit and run no GSP.
func TestEstimateSingleflightShares(t *testing.T) {
	f := newFixture(t, 40, 4, 49)
	sys, pipe := instrumented(t, f)
	b, err := NewBatcher(sys)
	if err != nil {
		t.Fatal(err)
	}
	slot := tslot.Slot(70)
	truth := f.truth(f.hist.Days-1, slot)
	observed := map[int]float64{3: truth(3), 11: truth(11)}
	key := estimateDigest(slot, observed, nil)
	leader := &flight[gsp.Result]{done: make(chan struct{})}
	b.flightMu.Lock()
	b.estimate[key] = leader
	b.flightMu.Unlock()

	n := f.net.N()
	want := gsp.Result{Speeds: make([]float64, n), SD: make([]float64, n), Converged: true, Iterations: 7}
	for i := range want.Speeds {
		want.Speeds[i], want.SD[i] = 40+float64(i)/8, 1.5
	}
	got := followPlanted(t, pipe, 8, func() (gsp.Result, error) {
		return b.Estimate(context.Background(), slot, observed)
	}, func() {
		leader.res = want
		b.flightMu.Lock()
		delete(b.estimate, key)
		b.flightMu.Unlock()
		close(leader.done)
	})
	for i, res := range got {
		if !reflect.DeepEqual(res, want) {
			t.Errorf("follower %d did not get the leader's field", i)
		}
	}
	if r, s := pipe.GSP.Runs.Value(), pipe.GSP.Iterations.Value(); r != 0 || s != 0 {
		t.Errorf("followers ran %d propagations and %d sweeps", r, s)
	}
}

// TestSelectSingleflightShares pins the request-level singleflight of
// Batcher.Select: 8 callers of an identical in-flight request block until
// its leader finishes, return its solution and run no OCS solve.
func TestSelectSingleflightShares(t *testing.T) {
	f := newFixture(t, 40, 4, 50)
	sys, pipe := instrumented(t, f)
	b, err := NewBatcher(sys)
	if err != nil {
		t.Fatal(err)
	}
	req := SelectRequest{
		Slot: 70, Roads: []int{1, 2, 3}, WorkerRoads: crowd.PlaceEverywhere(f.net).Roads(),
		Budget: 10, Theta: 0.9, Seed: 4,
	}
	key := selectDigest(req)
	leader := &flight[ocs.Solution]{done: make(chan struct{})}
	b.flightMu.Lock()
	b.selects[key] = leader
	b.flightMu.Unlock()

	want := ocs.Solution{Roads: []int{5, 17, 30}, Value: 0.8125, Cost: 9}
	got := followPlanted(t, pipe, 8, func() (ocs.Solution, error) {
		return b.Select(context.Background(), req)
	}, func() {
		leader.res = want
		b.flightMu.Lock()
		delete(b.selects, key)
		b.flightMu.Unlock()
		close(leader.done)
	})
	for i, sol := range got {
		if !reflect.DeepEqual(sol, want) {
			t.Errorf("follower %d got %+v, want the leader's %+v", i, sol, want)
		}
	}
	if s := pipe.OCS.Solves.Value(); s != 0 {
		t.Errorf("followers ran %d OCS solves", s)
	}
}

// TestAbortedFieldNotShared: a field GSP cut short at one caller's deadline
// is that caller's best-so-far answer and nobody else's. The caller gets it,
// but it becomes neither the slot's warm seed and cached-tier answer nor
// filter evidence. Live followers of an aborted leader go back to the flight,
// in the request-level and the slot-level flight alike: each gets a
// converged field, and when another run is already in flight they share it
// instead of each starting one.
func TestAbortedFieldNotShared(t *testing.T) {
	f := newFixture(t, 40, 5, 65)
	slot := tslot.Slot(100)
	b, filt := newTemporalBatcher(t, f, slot)
	pipe := b.System().Obs()
	truth := f.truth(f.hist.Days-1, slot)
	observed := map[int]float64{2: truth(2), 7: truth(7), 19: truth(19)}
	collect(t, b, slot, observed)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := b.Estimate(cancelled, slot, observed)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("an estimate under a cancelled context was not aborted")
	}
	if _, ok := b.CachedResult(slot); ok {
		t.Error("the aborted field became the slot's cached estimate")
	}
	if got := filt.Fused(); got != 0 {
		t.Errorf("the aborted field fed the filter (%d fused)", got)
	}

	n := f.net.N()
	next := gsp.Result{Speeds: make([]float64, n), SD: make([]float64, n), Converged: true}
	for i := range next.Speeds {
		next.Speeds[i], next.SD[i] = 42, 2
	}
	digest := estimateDigest(slot, observed, nil)
	for _, tc := range []struct {
		name string
		set  func(*flight[gsp.Result])
		drop func()
		call func() (gsp.Result, error)
	}{
		{
			name: "request flight",
			set:  func(l *flight[gsp.Result]) { b.estimate[digest] = l },
			drop: func() { delete(b.estimate, digest) },
			call: func() (gsp.Result, error) {
				return b.Estimate(context.Background(), slot, observed)
			},
		},
		{
			name: "slot flight",
			set:  func(l *flight[gsp.Result]) { b.slotFlight[slot] = l },
			drop: func() { delete(b.slotFlight, slot) },
			call: func() (gsp.Result, error) {
				res, err := b.EstimateTier(context.Background(), qos.TierBatched, slot, nil)
				return res.Result, err
			},
		},
	} {
		// The aborted leader finishes with nothing in flight behind it: the
		// live followers run the work again and get a converged field.
		leader := &flight[gsp.Result]{done: make(chan struct{})}
		b.flightMu.Lock()
		tc.set(leader)
		b.flightMu.Unlock()
		got := followPlanted(t, pipe, 3, tc.call, func() {
			leader.res = res
			b.flightMu.Lock()
			tc.drop()
			b.flightMu.Unlock()
			close(leader.done)
		})
		for i, g := range got {
			if g.Aborted || !g.Converged {
				t.Errorf("%s: live follower %d of an aborted leader got aborted=%v converged=%v",
					tc.name, i, g.Aborted, g.Converged)
			}
		}

		// The aborted leader hands its key to a run that has already
		// finished and stays registered, so a follower that goes back to
		// the flight takes that run's field however late it wakes. Every
		// follower must: none runs GSP beside the flight, and none counts a
		// second Coalesced.
		leader = &flight[gsp.Result]{done: make(chan struct{})}
		b.flightMu.Lock()
		tc.set(leader)
		b.flightMu.Unlock()
		runs := pipe.GSP.Runs.Value()
		got = followPlanted(t, pipe, 3, tc.call, func() {
			done := &flight[gsp.Result]{done: make(chan struct{}), res: next}
			close(done.done)
			leader.res = res
			b.flightMu.Lock()
			tc.set(done)
			b.flightMu.Unlock()
			close(leader.done)
		})
		b.flightMu.Lock()
		tc.drop()
		b.flightMu.Unlock()
		for i, g := range got {
			if !reflect.DeepEqual(g.Speeds, next.Speeds) {
				t.Errorf("%s: follower %d of an aborted leader did not join the next run", tc.name, i)
			}
		}
		if d := pipe.GSP.Runs.Value() - runs; d != 0 {
			t.Errorf("%s: followers of an aborted leader ran %d propagations beside the flight", tc.name, d)
		}
	}
}
