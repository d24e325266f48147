package core_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/crowd"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/tslot"
)

func TestQueryResilientValidation(t *testing.T) {
	f := newFixture(t, 20, 4, 31)
	day := f.hist.Days - 1
	good := sim.QueryRequest{Slot: 100, Roads: []int{1, 2}, Budget: 10, Theta: 0.9,
		Workers: crowd.PlaceEverywhere(f.net), Truth: f.truth(day, 100), Seed: 1}
	camp := crowd.DefaultCampaign(good.Seed)
	good.Rounds, good.Campaign = 3, &camp
	bad := good
	bad.Workers = nil
	if _, err := f.query(context.Background(), bad); err == nil {
		t.Error("nil workers accepted")
	}
	bad = good
	bad.Truth = nil
	if _, err := f.query(context.Background(), bad); err == nil {
		t.Error("nil truth accepted")
	}
	bad = good
	bad.Slot = -1
	if _, err := f.query(context.Background(), bad); err == nil {
		t.Error("invalid slot accepted")
	}
	// nil context is tolerated (treated as Background).
	if _, err := f.query(nil, good); err != nil { //nolint:staticcheck
		t.Errorf("nil context rejected: %v", err)
	}
}

// chaosRun executes the acceptance scenario: 30% worker dropout, two
// blackout roads inside the query set, and a per-query deadline.
func chaosRun(t *testing.T, f *fixture, deadline time.Duration) *sim.QueryResult {
	t.Helper()
	day := f.hist.Days - 1
	slot := tslot.Slot(102)
	query := []int{3, 7, 11, 15, 19, 23, 27, 31}
	inj, err := faults.New(faults.Config{
		Seed:        7,
		DropoutProb: 0.30,
		Blackouts:   []int{7, 19},
		StaleProb:   0.05, StaleLag: 1,
		History: func(r, lag int) float64 {
			return f.hist.At(day, slot.Add(-lag), r)
		},
		GarbageProb: 0.03,
		LatencyProb: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	camp := crowd.DefaultCampaign(1)
	camp.AcceptProb = 1 // isolate the injected faults from baseline unwillingness
	camp = inj.WrapCampaign(camp)
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	res, err := f.query(ctx, sim.QueryRequest{
		Slot: slot, Roads: query, Budget: 40, Theta: 0.92,
		Workers: inj.FilterPool(crowd.PlaceEverywhere(f.net)),
		Seed:    7, Campaign: &camp,
		Truth:  inj.WrapTruth(f.truth(day, slot)),
		Rounds: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestQueryResilientChaos is the chaos-style acceptance test: under 30%
// dropout + 2 blackout roads + a deadline the pipeline still answers,
// recycles failed-task budget into a second OCS round, never overspends,
// and is NOT degraded.
func TestQueryResilientChaos(t *testing.T) {
	f := newFixture(t, 60, 6, 33)
	res := chaosRun(t, f, 30*time.Second)

	if len(res.QuerySpeeds) != 8 || len(res.Speeds) != f.net.N() {
		t.Fatalf("incomplete estimate: %d query speeds, %d speeds", len(res.QuerySpeeds), len(res.Speeds))
	}
	if res.Degraded {
		t.Error("chaos run flagged degraded despite successful probes")
	}
	if res.Rounds < 2 {
		t.Fatalf("rounds = %d, want ≥2 (budget recycling never kicked in)", res.Rounds)
	}
	if res.BudgetRecycled <= 0 {
		t.Errorf("BudgetRecycled = %d, want >0", res.BudgetRecycled)
	}
	if res.Ledger.Spent > 40 || res.Ledger.Budget != 40 {
		t.Errorf("overspent: %d/%d", res.Ledger.Spent, res.Ledger.Budget)
	}
	var spent int
	for _, s := range res.SpentPerRound {
		spent += s
	}
	if spent != res.Ledger.Spent {
		t.Errorf("per-round spend %d != ledger %d", spent, res.Ledger.Spent)
	}
	if res.Campaign.Failed == 0 {
		t.Error("no failed tasks despite blackout roads")
	}
	if len(res.AbandonedRoads) == 0 {
		t.Error("no roads abandoned despite failures")
	}
	// Abandoned roads must never appear in the observations.
	for _, r := range res.AbandonedRoads {
		if _, ok := res.Probed[r]; ok {
			t.Errorf("abandoned road %d was observed", r)
		}
	}
	// Blackout roads cannot be observed (their answers never arrive).
	for _, r := range []int{7, 19} {
		if _, ok := res.Probed[r]; ok {
			t.Errorf("blackout road %d produced an observation", r)
		}
	}
	if res.Campaign.Fulfilled != len(res.Probed) {
		t.Errorf("fulfilled %d tasks but %d observations", res.Campaign.Fulfilled, len(res.Probed))
	}
}

// The whole fault-injected pipeline must be bit-for-bit deterministic under
// a fixed seed (fresh injector each run).
func TestQueryResilientFaultDeterministic(t *testing.T) {
	f := newFixture(t, 60, 6, 33)
	a := chaosRun(t, f, 30*time.Second)
	b := chaosRun(t, f, 30*time.Second)
	if a.Rounds != b.Rounds || a.BudgetRecycled != b.BudgetRecycled ||
		a.Ledger.Spent != b.Ledger.Spent || a.Campaign.Failed != b.Campaign.Failed ||
		a.Campaign.Late != b.Campaign.Late {
		t.Fatalf("diagnostics differ: %+v vs %+v", a.Rounds, b.Rounds)
	}
	if len(a.AbandonedRoads) != len(b.AbandonedRoads) {
		t.Fatal("abandoned road sets differ")
	}
	for i := range a.AbandonedRoads {
		if a.AbandonedRoads[i] != b.AbandonedRoads[i] {
			t.Fatalf("abandoned road %d differs", i)
		}
	}
	for i := range a.Speeds {
		if a.Speeds[i] != b.Speeds[i] {
			t.Fatalf("speed %d differs: %v vs %v", i, a.Speeds[i], b.Speeds[i])
		}
	}
}

// 100% dropout: the crowd is gone, and the answer is the periodicity prior
// with an explicit degraded flag.
func TestQueryResilientTotalDropoutFallsBackToPrior(t *testing.T) {
	f := newFixture(t, 40, 5, 35)
	day := f.hist.Days - 1
	inj, err := faults.New(faults.Config{Seed: 3, DropoutProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	camp := inj.WrapCampaign(crowd.DefaultCampaign(1))
	res, err := f.query(context.Background(), sim.QueryRequest{
		Slot: 102, Roads: []int{1, 2, 3}, Budget: 20, Theta: 0.92,
		Workers: inj.FilterPool(crowd.PlaceEverywhere(f.net)),
		Seed:    3, Campaign: &camp,
		Truth:  inj.WrapTruth(f.truth(day, 102)),
		Rounds: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("total dropout not flagged degraded")
	}
	if res.Ledger.Spent != 0 || res.Rounds != 0 {
		t.Errorf("spent %d over %d rounds with no workers", res.Ledger.Spent, res.Rounds)
	}
	prior, _ := f.sys.PriorField(102)
	for i, v := range res.Speeds {
		if v != prior[i] {
			t.Fatalf("road %d: fallback %v != prior μ %v", i, v, prior[i])
		}
	}
}

// An already-expired deadline must still return an estimate (the prior,
// flagged degraded + deadline-hit), never an error.
func TestQueryResilientExpiredDeadline(t *testing.T) {
	f := newFixture(t, 40, 5, 37)
	day := f.hist.Days - 1
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	camp := crowd.DefaultCampaign(3)
	res, err := f.query(ctx, sim.QueryRequest{
		Slot: 102, Roads: []int{1, 2}, Budget: 20, Theta: 0.92,
		Workers: crowd.PlaceEverywhere(f.net),
		Seed:    3, Truth: f.truth(day, 102),
		Rounds: 3, Campaign: &camp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DeadlineHit {
		t.Error("expired context not reported as deadline hit")
	}
	if !res.Degraded {
		t.Error("zero-probe deadline result not degraded")
	}
	if len(res.Speeds) != f.net.N() {
		t.Error("no best-so-far field returned")
	}
}

// Fully willing workers and no faults: the resilient pipeline reduces to
// the plain one — a single round, nothing recycled, nothing abandoned.
func TestQueryResilientNoFaultsSingleRound(t *testing.T) {
	f := newFixture(t, 40, 5, 39)
	day := f.hist.Days - 1
	camp := crowd.DefaultCampaign(5)
	camp.AcceptProb = 1
	camp.MaxRounds = 10
	// Three workers per road so every quota is reachable in MaxRounds.
	var ws []crowd.Worker
	for r := 0; r < f.net.N(); r++ {
		for k := 0; k < 3; k++ {
			ws = append(ws, crowd.Worker{Road: r})
		}
	}
	res, err := f.query(context.Background(), sim.QueryRequest{
		Slot: 102, Roads: []int{1, 2, 3, 4}, Budget: 25, Theta: 0.92,
		Workers: crowd.NewPool(ws), Seed: 5, Campaign: &camp,
		Truth:  f.truth(day, 102),
		Rounds: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 || res.BudgetRecycled != 0 || len(res.AbandonedRoads) != 0 {
		t.Errorf("fault-free run: rounds=%d recycled=%d abandoned=%v",
			res.Rounds, res.BudgetRecycled, res.AbandonedRoads)
	}
	if res.Degraded {
		t.Error("fault-free run degraded")
	}
}
