package core_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

// The tests in this package drive core's engine through the paper's query
// loop (sim.RunQuery): select on a pinned model generation, probe a
// simulated crowd, propagate. They pin what the loop composes — OCS, GSP,
// the oracle cache and the hot-swap under concurrent queries, the
// instruments and spans, provenance — end to end.

// fixture is a system trained on a synthetic network's recorded history,
// whose days also supply the simulated workers' truth.
type fixture struct {
	net  *network.Network
	hist *speedgen.History
	sys  *core.System
}

func newFixture(tb testing.TB, roads, days int, seed int64) *fixture {
	tb.Helper()
	net := network.Synthetic(network.SyntheticOptions{Roads: roads, Seed: seed})
	h, err := speedgen.Generate(net, speedgen.Default(days, seed+1))
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := core.Train(net, h, core.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return &fixture{net: net, hist: h, sys: sys}
}

// truth is day's recorded speed at slot t: what a simulated worker reports.
func (f *fixture) truth(day int, t tslot.Slot) crowd.TruthFunc {
	return func(r int) float64 { return f.hist.At(day, t, r) }
}

// runQuery runs one query on sys's serving model generation.
func runQuery(ctx context.Context, sys *core.System, req sim.QueryRequest) (*sim.QueryResult, error) {
	return sim.RunQuery(ctx, sys.Pin(nil), sys.Network(), req)
}

func (f *fixture) query(ctx context.Context, req sim.QueryRequest) (*sim.QueryResult, error) {
	return runQuery(ctx, f.sys, req)
}

// instrumented attaches a fresh pipeline to a fresh system over the fixture's
// model, so each measurement starts from zeroed counters and a cold cache.
func instrumented(tb testing.TB, f *fixture) (*core.System, *obs.Pipeline) {
	tb.Helper()
	sys, err := core.NewFromModel(f.net, f.sys.Model(), core.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	pipe := obs.NewPipeline(obs.NewRegistry(), obs.SystemClock())
	sys.Instrument(pipe)
	return sys, pipe
}

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
	for _, sel := range []core.Selector{core.Hybrid, core.Ratio, core.Objective, core.RandomSel, core.VarMin} {
		for _, campaign := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				req := sim.QueryRequest{
					Slot: slot, Roads: []int{2, 9, 17, 30, 44}, Budget: 25, Theta: 0.92,
					Workers: pool, Truth: truth, Seed: seed, Selector: sel,
					Probe: crowd.ProbeConfig{NoiseSD: 0.02},
				}
				if campaign {
					camp := crowd.DefaultCampaign(0) // seed 0: the request seed drives it
					req.Campaign = &camp
				}
				got, err := f.query(ctx, req)
				if err != nil {
					t.Fatal(err)
				}

				sol, err := f.sys.Select(ctx, core.SelectRequest{
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

func TestQueryPipeline(t *testing.T) {
	f := newFixture(t, 80, 8, 4)
	slot := tslot.Slot(100)
	day := f.hist.Days - 1
	query := []int{3, 9, 14, 21, 30, 44, 52, 61, 70, 77}
	pool := crowd.PlaceEverywhere(f.net)

	res, err := f.query(context.Background(), sim.QueryRequest{
		Slot: slot, Roads: query, Budget: 30, Theta: 0.92,
		Workers: pool, Truth: f.truth(day, slot), Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected.Cost > 30 || res.Ledger.Spent > 30 {
		t.Errorf("budget violated: cost=%d spent=%d", res.Selected.Cost, res.Ledger.Spent)
	}
	if res.Ledger.Spent != res.Selected.Cost {
		t.Errorf("ledger (%d) disagrees with solution cost (%d)", res.Ledger.Spent, res.Selected.Cost)
	}
	if len(res.Speeds) != f.net.N() {
		t.Fatalf("speeds cover %d roads", len(res.Speeds))
	}
	if len(res.QuerySpeeds) != len(query) {
		t.Fatalf("query speeds = %d", len(res.QuerySpeeds))
	}
	if len(res.Probed) != len(res.Selected.Roads) {
		t.Errorf("probed %d roads, selected %d", len(res.Probed), len(res.Selected.Roads))
	}
	for r, v := range res.QuerySpeeds {
		if v < 0 || math.IsNaN(v) {
			t.Errorf("query road %d speed %v", r, v)
		}
	}
	if !res.Propagation.Converged {
		t.Error("GSP did not converge")
	}
}

func TestQueryValidation(t *testing.T) {
	f := newFixture(t, 20, 4, 6)
	pool := crowd.PlaceEverywhere(f.net)
	truth := f.truth(0, 0)
	if _, err := f.query(context.Background(), sim.QueryRequest{Slot: 0, Roads: []int{1}, Budget: 5, Theta: 1, Workers: nil, Truth: truth}); err == nil {
		t.Error("nil pool accepted")
	}
	if _, err := f.query(context.Background(), sim.QueryRequest{Slot: 0, Roads: []int{1}, Budget: 5, Theta: 1, Workers: pool, Truth: nil}); err == nil {
		t.Error("nil truth accepted")
	}
	if _, err := f.query(context.Background(), sim.QueryRequest{Slot: 999, Roads: []int{1}, Budget: 5, Theta: 1, Workers: pool, Truth: truth}); err == nil {
		t.Error("invalid slot accepted")
	}
	if _, err := f.query(context.Background(), sim.QueryRequest{Slot: 0, Roads: []int{99}, Budget: 5, Theta: 1, Workers: pool, Truth: truth}); err == nil {
		t.Error("out-of-range road accepted")
	}
	if _, err := f.query(context.Background(), sim.QueryRequest{Slot: 0, Roads: []int{1}, Budget: 0, Theta: 1, Workers: pool, Truth: truth}); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := f.sys.Select(context.Background(), core.SelectRequest{Slot: 0, Roads: []int{1}, WorkerRoads: pool.Roads(), Budget: 5, Theta: 1, Selector: core.Selector(42)}); err == nil {
		t.Error("unknown selector accepted")
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
	base := sim.QueryRequest{
		Slot: slot, Roads: []int{1, 2}, Budget: 20, Theta: 0.92,
		Workers: crowd.PlaceEverywhere(f.net), Truth: f.truth(f.hist.Days-1, slot), Seed: 3,
	}
	resilient := base
	resilient.Rounds, resilient.Campaign = 3, &camp
	prior, _ := f.sys.PriorField(slot)
	for name, req := range map[string]sim.QueryRequest{
		"default": base, "resilient": resilient,
	} {
		sys, pipe := instrumented(t, f)
		res, err := runQuery(ctx, sys, req)
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
	base := sim.QueryRequest{
		Slot: 100, Roads: []int{1, 2}, Theta: 0.92,
		Workers: crowd.PlaceEverywhere(f.net), Truth: f.truth(0, 100), Seed: 1,
	}
	resilient := base
	resilient.Rounds, resilient.Campaign = 3, &camp
	for _, budget := range []int{0, -5} {
		for name, req := range map[string]sim.QueryRequest{
			"default": base, "resilient": resilient,
		} {
			req.Budget = budget
			if _, err := f.query(context.Background(), req); err == nil {
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
	tr := obs.NewTrace("no-workers", nil)
	res, err := runQuery(obs.WithTrace(context.Background(), tr), sys, sim.QueryRequest{
		Slot: 100, Roads: []int{1, 2}, Budget: 10, Theta: 0.92,
		Workers: crowd.NewPool(nil), Truth: f.truth(0, 100), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Rounds != 0 || res.Ledger.Spent != 0 {
		t.Errorf("degraded=%v rounds=%d spent=%d", res.Degraded, res.Rounds, res.Ledger.Spent)
	}
	probes := 0
	for _, sp := range tr.Spans() {
		if sp.Name == "probe" {
			probes++
		}
	}
	if s := pipe.OCS.Solves.Value(); s != 0 || probes != 0 {
		t.Errorf("%d OCS solves and %d probe rounds with no worker", s, probes)
	}
}

func TestQueryWithCampaign(t *testing.T) {
	f := newFixture(t, 60, 6, 20)
	slot := tslot.Slot(80)
	day := f.hist.Days - 1
	camp := crowd.DefaultCampaign(21)
	camp.AcceptProb = 1
	camp.MaxRounds = 10
	res, err := f.query(context.Background(), sim.QueryRequest{
		Slot: slot, Roads: []int{2, 9, 17, 30}, Budget: 20, Theta: 0.92,
		Workers:  crowd.PlaceEverywhere(f.net),
		Campaign: &camp,
		Truth:    f.truth(day, slot),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Campaign == nil {
		t.Fatal("campaign report missing")
	}
	if res.Campaign.Fulfilled == 0 {
		t.Error("no fulfilled tasks with full willingness")
	}
	if len(res.Probed) != res.Campaign.Fulfilled {
		t.Errorf("probed %d roads, fulfilled %d tasks", len(res.Probed), res.Campaign.Fulfilled)
	}
	if res.Ledger.Spent > 20 {
		t.Errorf("budget violated: %d", res.Ledger.Spent)
	}
	// Unwilling workers: the query still succeeds, estimates fall back
	// toward the periodic means (no probes).
	lazy := crowd.DefaultCampaign(22)
	lazy.AcceptProb = 0
	res2, err := f.query(context.Background(), sim.QueryRequest{
		Slot: slot, Roads: []int{2, 9}, Budget: 20, Theta: 0.92,
		Workers:  crowd.PlaceEverywhere(f.net),
		Campaign: &lazy,
		Truth:    f.truth(day, slot),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Probed) != 0 || res2.Campaign.Failed == 0 {
		t.Errorf("unwilling campaign: probed=%d failed=%d", len(res2.Probed), res2.Campaign.Failed)
	}
	view := f.sys.Model().At(slot)
	if res2.QuerySpeeds[2] != view.Mu[2] {
		t.Errorf("no-probe estimate %v != μ %v", res2.QuerySpeeds[2], view.Mu[2])
	}
}

func TestQueryBeatsPeriodicBaseline(t *testing.T) {
	// The headline claim: with crowdsourced data + GSP, estimation error on
	// the queried roads is below the pure-periodicity baseline.
	f := newFixture(t, 100, 10, 7)
	slot := tslot.Slot(96) // rush hour, where deviations matter
	day := f.hist.Days - 1
	rng := rand.New(rand.NewSource(8))
	query := rng.Perm(f.net.N())[:30]
	pool := crowd.PlaceEverywhere(f.net)

	res, err := f.query(context.Background(), sim.QueryRequest{
		Slot: slot, Roads: query, Budget: 60, Theta: 0.92,
		Workers: pool, Truth: f.truth(day, slot), Seed: 9,
		Probe: crowd.ProbeConfig{NoiseSD: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	truthV := make([]float64, len(query))
	gspV := make([]float64, len(query))
	perV := make([]float64, len(query))
	view := f.sys.Model().At(slot)
	for i, r := range query {
		truthV[i] = f.hist.At(day, slot, r)
		gspV[i] = res.Speeds[r]
		perV[i] = view.Mu[r]
	}
	mGSP := metrics.MAPE(gspV, truthV)
	mPer := metrics.MAPE(perV, truthV)
	if mGSP >= mPer {
		t.Errorf("GSP MAPE %.4f not below Per MAPE %.4f", mGSP, mPer)
	}
}

func TestHybridSelectionBeatsRandomForGSP(t *testing.T) {
	// Fig. 3 (d): selection quality matters downstream. Averaged over a few
	// eval days, Hybrid-selected probes should yield lower MAPE than Random.
	f := newFixture(t, 100, 10, 10)
	slot := tslot.Slot(210)
	rng := rand.New(rand.NewSource(11))
	query := rng.Perm(f.net.N())[:25]
	pool := crowd.PlaceEverywhere(f.net)

	var hybridErr, randErr float64
	days := []int{f.hist.Days - 1, f.hist.Days - 2, f.hist.Days - 3}
	for _, day := range days {
		for _, sel := range []core.Selector{core.Hybrid, core.RandomSel} {
			res, err := f.query(context.Background(), sim.QueryRequest{
				Slot: slot, Roads: query, Budget: 25, Theta: 0.92,
				Workers: pool, Truth: f.truth(day, slot), Seed: int64(day),
				Selector: sel,
			})
			if err != nil {
				t.Fatal(err)
			}
			truthV := make([]float64, len(query))
			estV := make([]float64, len(query))
			for i, r := range query {
				truthV[i] = f.hist.At(day, slot, r)
				estV[i] = res.Speeds[r]
			}
			if sel == core.Hybrid {
				hybridErr += metrics.MAPE(estV, truthV)
			} else {
				randErr += metrics.MAPE(estV, truthV)
			}
		}
	}
	if hybridErr >= randErr {
		t.Errorf("Hybrid selection MAPE sum %.4f not below Random %.4f", hybridErr, randErr)
	}
}

func TestConcurrentQueries(t *testing.T) {
	f := newFixture(t, 60, 6, 13)
	pool := crowd.PlaceEverywhere(f.net)
	day := f.hist.Days - 1
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			slot := tslot.Slot(10 * (i + 1))
			_, err := f.query(context.Background(), sim.QueryRequest{
				Slot: slot, Roads: []int{1, 5, 9}, Budget: 10, Theta: 0.92,
				Workers: pool, Truth: f.truth(day, slot), Seed: int64(i),
			})
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent query %d: %v", i, err)
		}
	}
}

// TestConcurrentQueryMixedSlots hammers one System with concurrent full
// queries across more slots than the LRU holds, under -race: exercises the
// singleflight row cache, the parallel OCS rounds, and LRU eviction under
// load simultaneously.
func TestConcurrentQueryMixedSlots(t *testing.T) {
	f := newFixture(t, 40, 5, 6)
	cfg := core.DefaultConfig()
	cfg.OracleCacheSlots = 3
	sys, err := core.NewFromModel(f.net, f.sys.Model(), cfg)
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
				res, err := runQuery(context.Background(), sys, sim.QueryRequest{
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
				res, err := f.query(context.Background(), sim.QueryRequest{
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
