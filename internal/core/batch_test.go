package core

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/crowd"
	"repro/internal/obs"
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

// TestBatchVsSequentialEquivalence is the tentpole acceptance gate: a
// coalesced batch of 32 identical same-slot queries must (a) execute at least
// 2× fewer total GSP sweeps than 32 independent Query calls — asserted via
// the obs counters — and (b) return estimates identical within the GSP
// Epsilon tolerance.
func TestBatchVsSequentialEquivalence(t *testing.T) {
	f := newFixture(t, 60, 5, 41)
	const (
		batch = 32
		slot  = tslot.Slot(120)
	)
	pool := crowd.PlaceEverywhere(f.net)
	truth := f.truth(f.hist.Days-1, slot)
	mkReq := func() QueryRequest {
		return QueryRequest{
			Slot: slot, Roads: []int{1, 5, 9, 13, 21, 34}, Budget: 25, Theta: 0.9,
			Workers: pool, Truth: truth, Seed: 7,
		}
	}

	// Sequential: 32 independent Query calls on an instrumented system.
	seqSys, seqPipe := instrumented(t, f)
	var seqResults []*QueryResult
	for i := 0; i < batch; i++ {
		res, err := seqSys.Query(context.Background(), mkReq())
		if err != nil {
			t.Fatal(err)
		}
		seqResults = append(seqResults, res)
	}
	seqSweeps := seqPipe.GSP.Iterations.Value()
	if seqSweeps == 0 {
		t.Fatal("sequential runs recorded zero GSP sweeps")
	}

	// Batched: the same 32 queries arriving concurrently through the Batcher.
	batSys, batPipe := instrumented(t, f)
	b, err := NewBatcher(batSys, BatcherOptions{Window: 50 * time.Millisecond, MaxBatch: batch})
	if err != nil {
		t.Fatal(err)
	}
	batResults := make([]*QueryResult, batch)
	errs := make([]error, batch)
	var wg sync.WaitGroup
	for i := 0; i < batch; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			batResults[i], errs[i] = b.Query(context.Background(), mkReq())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batched query %d: %v", i, err)
		}
	}
	batSweeps := batPipe.GSP.Iterations.Value()

	// Gate (a): ≥2× fewer total sweeps.
	if batSweeps == 0 {
		t.Fatal("batched run recorded zero GSP sweeps")
	}
	if ratio := float64(seqSweeps) / float64(batSweeps); ratio < 2 {
		t.Errorf("sweep amortization %0.2f× < 2× (sequential %d, batched %d)",
			ratio, seqSweeps, batSweeps)
	}
	groups := batPipe.Batch.Groups.Value()
	if groups == 0 {
		t.Error("no batch groups recorded")
	}
	// Each group runs one shared pass of the identical query, so it costs at
	// most one sequential query's sweeps (warm-started later groups cost
	// fewer). A batcher that coalesces but re-propagates per member fails here.
	if perQuery := seqSweeps / batch; batSweeps > groups*perQuery {
		t.Errorf("batched sweeps %d exceed %d groups × %d sweeps per query",
			batSweeps, groups, perQuery)
	}
	if m := batPipe.Batch.Members.Value(); m != batch {
		t.Errorf("batch members = %d, want %d", m, batch)
	}
	if c := batPipe.Batch.Coalesced.Value(); c == 0 {
		t.Error("no coalesced queries recorded")
	}

	// Gate (b): estimates identical within Epsilon.
	eps := DefaultConfig().GSP.Epsilon
	for i, br := range batResults {
		sr := seqResults[i]
		for r, want := range sr.QuerySpeeds {
			got, ok := br.QuerySpeeds[r]
			if !ok {
				t.Fatalf("batched result %d missing road %d", i, r)
			}
			if math.Abs(got-want) > eps {
				t.Fatalf("batched result %d road %d: %v vs sequential %v (ε=%v)",
					i, r, got, want, eps)
			}
		}
	}
}

// TestBatchDistinctRoadsUnion verifies that members with different road sets
// get exactly their own roads back, sliced from the union pass.
func TestBatchDistinctRoadsUnion(t *testing.T) {
	f := newFixture(t, 50, 4, 42)
	slot := tslot.Slot(60)
	pool := crowd.PlaceEverywhere(f.net)
	truth := f.truth(f.hist.Days-1, slot)
	sys, _ := instrumented(t, f)
	b, err := NewBatcher(sys, BatcherOptions{Window: 50 * time.Millisecond, MaxBatch: 3})
	if err != nil {
		t.Fatal(err)
	}
	roadSets := [][]int{{0, 2, 4}, {4, 6, 8}, {10}}
	results := make([]*QueryResult, len(roadSets))
	errs := make([]error, len(roadSets))
	var wg sync.WaitGroup
	for i, roads := range roadSets {
		wg.Add(1)
		go func(i int, roads []int) {
			defer wg.Done()
			results[i], errs[i] = b.Query(context.Background(), QueryRequest{
				Slot: slot, Roads: roads, Budget: 15, Theta: 0.9,
				Workers: pool, Truth: truth, Seed: 3,
			})
		}(i, roads)
	}
	wg.Wait()
	for i := range roadSets {
		if errs[i] != nil {
			t.Fatalf("member %d: %v", i, errs[i])
		}
		if len(results[i].QuerySpeeds) != len(roadSets[i]) {
			t.Errorf("member %d got %d roads, want %d",
				i, len(results[i].QuerySpeeds), len(roadSets[i]))
		}
		for _, r := range roadSets[i] {
			if _, ok := results[i].QuerySpeeds[r]; !ok {
				t.Errorf("member %d missing road %d", i, r)
			}
		}
	}
	// Overlapping road 4 must agree across members (one shared field).
	if a, b := results[0].QuerySpeeds[4], results[1].QuerySpeeds[4]; a != b {
		t.Errorf("shared road 4 differs across members: %v vs %v", a, b)
	}
}

// TestBatcherGroupsByPolicy: concurrent same-slot members that differ only
// in their policy must not share a pass. Each gets the answer its own policy
// implies — the rounds, selection, probes and spend of that policy run alone
// — which fails if the group key omits the policy and one member's pass
// answers both.
func TestBatcherGroupsByPolicy(t *testing.T) {
	f := newFixture(t, 60, 5, 48)
	slot := tslot.Slot(120)
	base := QueryRequest{
		Slot: slot, Roads: []int{1, 5, 9, 13, 21, 34}, Budget: 30, Theta: 0.9,
		Workers: crowd.PlaceEverywhere(f.net), Truth: f.truth(f.hist.Days-1, slot), Seed: 7,
	}
	reqs := []QueryRequest{base, staged(base, 0, 3)}

	sys, pipe := instrumented(t, f)
	b, err := NewBatcher(sys, BatcherOptions{Window: 50 * time.Millisecond, MaxBatch: len(reqs)})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*QueryResult, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req QueryRequest) {
			defer wg.Done()
			got[i], errs[i] = b.Query(context.Background(), req)
		}(i, req)
	}
	wg.Wait()
	if g := pipe.Batch.Groups.Value(); g != uint64(len(reqs)) {
		t.Errorf("%d shared passes for %d policies", g, len(reqs))
	}
	var wantRounds []int
	for i, req := range reqs {
		if errs[i] != nil {
			t.Fatalf("member %d: %v", i, errs[i])
		}
		alone, _ := instrumented(t, f)
		want, err := alone.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		wantRounds = append(wantRounds, want.Rounds)
		g := got[i]
		if g.Rounds != want.Rounds || g.Ledger != want.Ledger || len(g.Probed) != len(want.Probed) {
			t.Errorf("member %d: rounds %d spent %d probed %d, its policy alone gives %d/%d/%d",
				i, g.Rounds, g.Ledger.Spent, len(g.Probed), want.Rounds, want.Ledger.Spent, len(want.Probed))
		}
		for r, v := range want.Probed {
			if g.Probed[r] != v {
				t.Errorf("member %d: probe of road %d = %v, alone %v", i, r, g.Probed[r], v)
			}
		}
	}
	if wantRounds[0] == wantRounds[1] {
		t.Fatalf("both policies run %d rounds: the test cannot tell them apart", wantRounds[0])
	}
}

func TestBatcherValidation(t *testing.T) {
	f := newFixture(t, 20, 4, 43)
	if _, err := NewBatcher(nil, BatcherOptions{}); err == nil {
		t.Error("nil system accepted")
	}
	sys, _ := instrumented(t, f)
	b, err := NewBatcher(sys, BatcherOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pool := crowd.PlaceEverywhere(f.net)
	truth := f.truth(0, 0)
	ctx := context.Background()
	if _, err := b.Query(ctx, QueryRequest{Slot: 0, Roads: []int{0}, Truth: truth}); err == nil {
		t.Error("missing workers accepted")
	}
	if _, err := b.Query(ctx, QueryRequest{Slot: 0, Roads: []int{0}, Workers: pool}); err == nil {
		t.Error("missing truth accepted")
	}
	if _, err := b.Query(ctx, QueryRequest{Slot: -1, Roads: []int{0}, Workers: pool, Truth: truth}); err == nil {
		t.Error("invalid slot accepted")
	}
	if _, err := b.Query(ctx, QueryRequest{Slot: 0, Roads: []int{99}, Workers: pool, Truth: truth}); err == nil {
		t.Error("out-of-range road accepted")
	}
	// Expired context: the caller's wait is bounded even though the group runs.
	expired, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := b.Query(expired, QueryRequest{
		Slot: 0, Roads: []int{0}, Budget: 5, Theta: 0.9, Workers: pool, Truth: truth,
	}); err == nil {
		t.Error("expired context did not bound the wait")
	}
}

// TestBatcherEstimateWarmStart checks the singleflight + warm-start estimate
// path: the second estimate for a slot must be warm-started from the first
// and converge with no more sweeps than the cold pass.
func TestBatcherEstimateWarmStart(t *testing.T) {
	f := newFixture(t, 60, 5, 44)
	slot := tslot.Slot(30)
	sys, pipe := instrumented(t, f)
	b, err := NewBatcher(sys, BatcherOptions{})
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
	eps := DefaultConfig().GSP.Epsilon
	for i := range coldB.Speeds {
		if math.Abs(coldB.Speeds[i]-warm.Speeds[i]) > 10*eps {
			t.Fatalf("warm estimate diverges at road %d: %v vs %v",
				i, warm.Speeds[i], coldB.Speeds[i])
		}
	}
}

// TestBatcherConcurrentMixedSlots is the -race workout: 32 clients hammer
// Query/Estimate/Select across a handful of slots while estimates warm-start
// from each other.
func TestBatcherConcurrentMixedSlots(t *testing.T) {
	f := newFixture(t, 50, 4, 45)
	sys, _ := instrumented(t, f)
	b, err := NewBatcher(sys, BatcherOptions{Window: time.Millisecond, MaxBatch: 8, PrevSlots: 2})
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
			slot := tslot.Slot((c % 4) * 12)
			truth := f.truth(f.hist.Days-1, slot)
			for i := 0; i < 6; i++ {
				switch (c + i) % 3 {
				case 0:
					if _, err := b.Query(context.Background(), QueryRequest{
						Slot: slot, Roads: []int{c % 10, 20 + c%10}, Budget: 12,
						Theta: 0.9, Workers: pool, Truth: truth, Seed: int64(c),
					}); err != nil {
						errCh <- err
						return
					}
				case 1:
					obs := map[int]float64{c % 50: truth(c % 50), (c + i) % 50: truth((c + i) % 50)}
					if _, err := b.Estimate(context.Background(), slot, obs); err != nil {
						errCh <- err
						return
					}
				default:
					if _, err := b.Select(context.Background(), SelectRequest{
						Slot: slot, Roads: []int{0, 1, 2}, WorkerRoads: pool.Roads(),
						Budget: 10, Theta: 0.9, Seed: int64(c % 3),
					}); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestSubscriptionManual drives a standing query by hand through a map-backed
// observation source.
func TestSubscriptionManual(t *testing.T) {
	f := newFixture(t, 40, 4, 46)
	sys, _ := instrumented(t, f)
	b, err := NewBatcher(sys, BatcherOptions{})
	if err != nil {
		t.Fatal(err)
	}
	src := &mapSource{obs: map[int]float64{}}
	slot := tslot.Slot(18)
	truth := f.truth(f.hist.Days-1, slot)

	if _, err := b.Subscribe(slot, nil, src, SubscriptionOptions{}); err == nil {
		t.Error("empty road set accepted")
	}
	if _, err := b.Subscribe(slot, []int{99}, src, SubscriptionOptions{}); err == nil {
		t.Error("out-of-range road accepted")
	}
	if _, err := b.Subscribe(slot, []int{0}, nil, SubscriptionOptions{}); err == nil {
		t.Error("nil source accepted")
	}

	sub, err := b.Subscribe(slot, []int{2, 4, 6}, src, SubscriptionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// First refresh: no observations yet — still delivers (prior field).
	up1, ok, err := sub.Refresh(context.Background(), false)
	if err != nil || !ok {
		t.Fatalf("first refresh: ok=%v err=%v", ok, err)
	}
	if up1.Seq != 1 || len(up1.Speeds) != 3 {
		t.Errorf("update 1: seq=%d roads=%d", up1.Seq, len(up1.Speeds))
	}
	// Unchanged: no new estimate.
	if _, ok, err := sub.Refresh(context.Background(), false); err != nil || ok {
		t.Fatalf("unchanged refresh re-estimated: ok=%v err=%v", ok, err)
	}
	// New report arrives: refresh re-estimates, warm-started.
	src.set(3, truth(3))
	up2, ok, err := sub.Refresh(context.Background(), false)
	if err != nil || !ok {
		t.Fatalf("changed refresh: ok=%v err=%v", ok, err)
	}
	if up2.Seq != 2 || up2.Observed != 1 {
		t.Errorf("update 2: seq=%d observed=%d", up2.Seq, up2.Observed)
	}
	if !up2.Result.WarmStarted {
		t.Error("changed refresh not warm-started")
	}
	// Force re-delivers even without changes.
	if _, ok, err := sub.Refresh(context.Background(), true); err != nil || !ok {
		t.Fatalf("forced refresh: ok=%v err=%v", ok, err)
	}
	sub.Close() // idempotent
	if _, _, err := sub.Refresh(context.Background(), true); err == nil {
		t.Error("refresh after close accepted")
	}
}

// TestSubscriptionInterval exercises the background ticker mode.
func TestSubscriptionInterval(t *testing.T) {
	f := newFixture(t, 30, 4, 47)
	sys, _ := instrumented(t, f)
	b, err := NewBatcher(sys, BatcherOptions{})
	if err != nil {
		t.Fatal(err)
	}
	slot := tslot.Slot(6)
	truth := f.truth(f.hist.Days-1, slot)
	src := &mapSource{obs: map[int]float64{0: truth(0)}}
	sub, err := b.Subscribe(slot, []int{1, 3}, src, SubscriptionOptions{Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case up := <-sub.Updates():
		if up.Seq == 0 || len(up.Speeds) != 2 {
			t.Errorf("bad update: %+v", up)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no update within 2s")
	}
	src.set(5, truth(5))
	select {
	case <-sub.Updates():
	case <-time.After(2 * time.Second):
		t.Fatal("no second update within 2s")
	}
	sub.Close()
	if _, open := <-sub.Updates(); open {
		// Drain: channel must eventually close.
		for range sub.Updates() {
		}
	}
}

type mapSource struct {
	mu  sync.Mutex
	obs map[int]float64
}

func (m *mapSource) set(r int, v float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.obs[r] = v
}

func (m *mapSource) Observations(tslot.Slot) map[int]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]float64, len(m.obs))
	for r, v := range m.obs {
		out[r] = v
	}
	return out
}
