package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/crowd"
	"repro/internal/tslot"
)

// TestQueryIsSelectProbeEstimate pins the default policy to its definition:
// one Query is Select over the pool's roads with the whole budget, one probe
// of the selection (Workers.Probe, or RunCampaign under a campaign) and one
// Estimate of what it bought — bit for bit, for every selector.
func TestQueryIsSelectProbeEstimate(t *testing.T) {
	f := newFixture(t, 60, 6, 50)
	slot := tslot.Slot(100)
	truth := f.truth(f.hist.Days-1, slot)
	pool := crowd.PlaceEverywhere(f.net)
	ctx := context.Background()
	for _, sel := range []Selector{Hybrid, Ratio, Objective, RandomSel, VarMin} {
		for _, campaign := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				req := QueryRequest{
					Slot: slot, Roads: []int{2, 9, 17, 30, 44}, Budget: 25, Theta: 0.92,
					Workers: pool, Truth: truth, Seed: seed, Selector: sel,
					Probe: crowd.ProbeConfig{NoiseSD: 0.02},
				}
				if campaign {
					camp := crowd.DefaultCampaign(0) // seed 0: the request seed drives it
					req.Campaign = &camp
				}
				got, err := f.sys.Query(ctx, req)
				if err != nil {
					t.Fatal(err)
				}

				sol, err := f.sys.Select(ctx, SelectRequest{
					Slot: slot, Roads: req.Roads, WorkerRoads: pool.Roads(),
					Budget: req.Budget, Theta: req.Theta, Selector: sel, Seed: seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				ledger := crowd.Ledger{Budget: req.Budget}
				var probed map[int]float64
				var answers []crowd.Answer
				var report *crowd.CampaignReport
				if campaign {
					camp := *req.Campaign
					camp.Seed = seed
					probed, report, err = pool.RunCampaign(sol.Roads, f.net.Costs(), truth, camp, &ledger)
					if err == nil {
						answers = report.Answers
					}
				} else {
					probe := req.Probe
					probe.Seed = seed
					probed, answers, err = pool.Probe(sol.Roads, f.net.Costs(), truth, probe, &ledger)
				}
				if err != nil {
					t.Fatal(err)
				}
				prop, err := f.sys.Estimate(ctx, slot, probed)
				if err != nil {
					t.Fatal(err)
				}

				name := sel.String()
				if !reflect.DeepEqual(got.Selected, sol) {
					t.Fatalf("%s seed %d: selected %+v, composed %+v", name, seed, got.Selected, sol)
				}
				if !reflect.DeepEqual(got.Probed, probed) || !reflect.DeepEqual(got.Answers, answers) || got.Ledger != ledger {
					t.Fatalf("%s seed %d campaign=%v: probes differ from the composed pipeline", name, seed, campaign)
				}
				if !reflect.DeepEqual(got.Speeds, prop.Speeds) || !reflect.DeepEqual(got.Propagation.SD, prop.SD) {
					t.Fatalf("%s seed %d campaign=%v: field differs from the composed pipeline", name, seed, campaign)
				}
				if campaign && (got.Campaign.Fulfilled != report.Fulfilled || got.Campaign.Failed != report.Failed ||
					!reflect.DeepEqual(got.Campaign.Tasks, report.Tasks)) {
					t.Fatalf("%s seed %d: campaign report differs from the composed one", name, seed)
				}
				if got.Rounds != 1 || !reflect.DeepEqual(got.SpentPerRound, []int{ledger.Spent}) || got.BudgetRecycled != 0 {
					t.Fatalf("%s seed %d: rounds %d, per-round spend %v", name, seed, got.Rounds, got.SpentPerRound)
				}
			}
		}
	}
}

// TestStagedQueryIsRoundsOfSelectProbe pins the staged policy: round s
// selects among the roads not yet probed with the budget stage s opens
// (Budget·s/Stages minus what is spent), under OCS seed Seed+s−1, probes the
// selection in one call under probe seed Seed+1009·(s−1), and propagates
// only when it bought something.
func TestStagedQueryIsRoundsOfSelectProbe(t *testing.T) {
	f := newFixture(t, 60, 6, 51)
	slot := tslot.Slot(110)
	truth := f.truth(f.hist.Days-1, slot)
	pool := crowd.PlaceEverywhere(f.net)
	ctx := context.Background()
	const stages = 3
	var query []int
	for r := 0; r < f.net.N(); r += 3 {
		query = append(query, r)
	}
	req := QueryRequest{
		Slot: slot, Roads: query, Budget: 30, Theta: 0.92,
		Workers: pool, Truth: truth, Seed: 5, Probe: crowd.ProbeConfig{NoiseSD: 0.02},
		Stages: stages,
	}
	sys, pipe := instrumented(t, f)
	got, err := sys.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	runs := pipe.GSP.Runs.Value()

	ledger := crowd.Ledger{Budget: req.Budget}
	observed := map[int]float64{}
	var spentPerRound []int
	for s := 1; s <= stages; s++ {
		var cands []int
		for _, r := range pool.Roads() {
			if _, done := observed[r]; !done {
				cands = append(cands, r)
			}
		}
		sol, err := f.sys.Select(ctx, SelectRequest{
			Slot: slot, Roads: req.Roads, WorkerRoads: cands,
			Budget: req.Budget*s/stages - ledger.Spent, Theta: req.Theta, Seed: req.Seed + int64(s-1),
		})
		if err != nil {
			t.Fatal(err)
		}
		before := ledger.Spent
		probe := req.Probe
		probe.Seed = req.Seed + 1009*int64(s-1)
		probed, _, err := pool.Probe(sol.Roads, f.net.Costs(), truth, probe, &ledger)
		if err != nil {
			t.Fatal(err)
		}
		for r, v := range probed {
			observed[r] = v
		}
		spentPerRound = append(spentPerRound, ledger.Spent-before)
	}
	prop, err := f.sys.Estimate(ctx, slot, observed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != stages || !reflect.DeepEqual(got.SpentPerRound, spentPerRound) || got.Ledger != ledger {
		t.Fatalf("rounds %d spend %v ledger %+v, composed %d/%v/%+v",
			got.Rounds, got.SpentPerRound, got.Ledger, stages, spentPerRound, ledger)
	}
	if !reflect.DeepEqual(got.Probed, observed) || !reflect.DeepEqual(got.Speeds, prop.Speeds) {
		t.Fatal("staged observations or field differ from the composed rounds")
	}
	if runs != stages {
		t.Errorf("%d GSP runs for %d rounds that each bought probes", runs, stages)
	}
	if got.MaxQuerySD <= 0 {
		t.Fatalf("MaxQuerySD %v: every queried road probed, so the stages could stop early", got.MaxQuerySD)
	}
}

// TestQueryExpiredContextSpendsNothing: under every policy an already
// expired context stops the query before its first round — no OCS, no
// probe, no money — and the answer is the prior, flagged degraded and
// deadline-hit, not an error.
func TestQueryExpiredContextSpendsNothing(t *testing.T) {
	f := newFixture(t, 40, 5, 52)
	slot := tslot.Slot(102)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	camp := crowd.DefaultCampaign(3)
	base := QueryRequest{
		Slot: slot, Roads: []int{1, 2}, Budget: 20, Theta: 0.92,
		Workers: crowd.PlaceEverywhere(f.net), Truth: f.truth(f.hist.Days-1, slot), Seed: 3,
	}
	resilient := base
	resilient.Rounds, resilient.Campaign = 3, &camp
	prior, _ := f.sys.PriorField(slot)
	for name, req := range map[string]QueryRequest{
		"default": base, "staged": staged(base, 0, 3), "resilient": resilient,
	} {
		sys, pipe := instrumented(t, f)
		res, err := sys.Query(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Ledger.Spent != 0 || res.Rounds != 0 || pipe.OCS.Solves.Value() != 0 {
			t.Errorf("%s: spent %d over %d rounds, %d OCS solves after the deadline",
				name, res.Ledger.Spent, res.Rounds, pipe.OCS.Solves.Value())
		}
		if !res.Degraded || !res.DeadlineHit {
			t.Errorf("%s: degraded=%v deadline=%v", name, res.Degraded, res.DeadlineHit)
		}
		if !reflect.DeepEqual(res.Speeds, prior) {
			t.Errorf("%s: expired query did not answer the prior", name)
		}
	}
}

// TestQueryRejectsNonPositiveBudget: a query that may not spend anything is
// a caller error under every policy, not a prior answer.
func TestQueryRejectsNonPositiveBudget(t *testing.T) {
	f := newFixture(t, 30, 4, 53)
	camp := crowd.DefaultCampaign(1)
	base := QueryRequest{
		Slot: 100, Roads: []int{1, 2}, Theta: 0.92,
		Workers: crowd.PlaceEverywhere(f.net), Truth: f.truth(0, 100), Seed: 1,
	}
	resilient := base
	resilient.Rounds, resilient.Campaign = 3, &camp
	for _, budget := range []int{0, -5} {
		for name, req := range map[string]QueryRequest{
			"default": base, "staged": staged(base, 0, 3), "resilient": resilient,
		} {
			req.Budget = budget
			if _, err := f.sys.Query(context.Background(), req); err == nil {
				t.Errorf("%s: budget %d accepted", name, budget)
			}
		}
	}
}

// TestQueryWithoutWorkersSkipsOCS: with no worker road to buy, the query
// answers the prior without an OCS solve or a probe round.
func TestQueryWithoutWorkersSkipsOCS(t *testing.T) {
	f := newFixture(t, 30, 4, 54)
	sys, pipe := instrumented(t, f)
	res, err := sys.Query(context.Background(), QueryRequest{
		Slot: 100, Roads: []int{1, 2}, Budget: 10, Theta: 0.92,
		Workers: crowd.NewPool(nil), Truth: f.truth(0, 100), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Rounds != 0 || res.Ledger.Spent != 0 {
		t.Errorf("degraded=%v rounds=%d spent=%d", res.Degraded, res.Rounds, res.Ledger.Spent)
	}
	if s, p := pipe.OCS.Solves.Value(), pipe.ProbeRounds.Value(); s != 0 || p != 0 {
		t.Errorf("%d OCS solves and %d probe rounds with no worker", s, p)
	}
}
