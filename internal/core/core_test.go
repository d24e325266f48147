package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/baselines"
	"repro/internal/crowd"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

type fixture struct {
	net  *network.Network
	hist *speedgen.History
	sys  *System
}

func newFixture(tb testing.TB, roads, days int, seed int64) *fixture {
	tb.Helper()
	net := network.Synthetic(network.SyntheticOptions{Roads: roads, Seed: seed})
	h, err := speedgen.Generate(net, speedgen.Default(days, seed+1))
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := Train(net, h, DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return &fixture{net: net, hist: h, sys: sys}
}

// evalDay is the held-out day used as "realtime" ground truth.
func (f *fixture) truth(day int, t tslot.Slot) crowd.TruthFunc {
	return func(r int) float64 { return f.hist.At(day, t, r) }
}

func TestTrainValidation(t *testing.T) {
	f := newFixture(t, 20, 4, 1)
	if _, err := Train(nil, f.hist, DefaultConfig()); err == nil {
		t.Error("nil network accepted")
	}
	bad := DefaultConfig()
	bad.Window = -1
	if _, err := Train(f.net, f.hist, bad); err == nil {
		t.Error("negative window accepted")
	}
}

func TestNewFromModel(t *testing.T) {
	f := newFixture(t, 20, 4, 2)
	sys, err := NewFromModel(f.net, f.sys.Model(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sys.Network() != f.net {
		t.Error("network not retained")
	}
	if _, err := NewFromModel(f.net, nil, DefaultConfig()); err == nil {
		t.Error("nil model accepted")
	}
	other := network.Synthetic(network.SyntheticOptions{Roads: 21, Seed: 9})
	if _, err := NewFromModel(other, f.sys.Model(), DefaultConfig()); err == nil {
		t.Error("mismatched model accepted")
	}
}

func TestSelectorString(t *testing.T) {
	names := map[Selector]string{Hybrid: "Hybrid", Ratio: "Ratio", Objective: "OBJ", RandomSel: "Rand"}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if Selector(9).String() == "" {
		t.Error("unknown selector empty name")
	}
}

func TestOracleCached(t *testing.T) {
	f := newFixture(t, 20, 4, 3)
	a := f.sys.Oracle(100)
	b := f.sys.Oracle(100)
	if a != b {
		t.Error("oracle not cached per slot")
	}
	if f.sys.Oracle(101) == a {
		t.Error("different slots share an oracle")
	}
}

func TestQueryPipeline(t *testing.T) {
	f := newFixture(t, 80, 8, 4)
	slot := tslot.Slot(100)
	day := f.hist.Days - 1
	query := []int{3, 9, 14, 21, 30, 44, 52, 61, 70, 77}
	pool := crowd.PlaceEverywhere(f.net)

	res, err := f.sys.Query(context.Background(), QueryRequest{
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
	if _, err := f.sys.Query(context.Background(), QueryRequest{Slot: 0, Roads: []int{1}, Budget: 5, Theta: 1, Workers: nil, Truth: truth}); err == nil {
		t.Error("nil pool accepted")
	}
	if _, err := f.sys.Query(context.Background(), QueryRequest{Slot: 0, Roads: []int{1}, Budget: 5, Theta: 1, Workers: pool, Truth: nil}); err == nil {
		t.Error("nil truth accepted")
	}
	if _, err := f.sys.Query(context.Background(), QueryRequest{Slot: 999, Roads: []int{1}, Budget: 5, Theta: 1, Workers: pool, Truth: truth}); err == nil {
		t.Error("invalid slot accepted")
	}
	if _, err := f.sys.Query(context.Background(), QueryRequest{Slot: 0, Roads: []int{1}, Budget: 0, Theta: 1, Workers: pool, Truth: truth}); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := f.sys.Select(context.Background(), SelectRequest{Slot: 0, Roads: []int{1}, WorkerRoads: pool.Roads(), Budget: 5, Theta: 1, Selector: Selector(42)}); err == nil {
		t.Error("unknown selector accepted")
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

	res, err := f.sys.Query(context.Background(), QueryRequest{
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
		for _, sel := range []Selector{Hybrid, RandomSel} {
			res, err := f.sys.Query(context.Background(), QueryRequest{
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
			if sel == Hybrid {
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

func TestQueryWithCampaign(t *testing.T) {
	f := newFixture(t, 60, 6, 20)
	slot := tslot.Slot(80)
	day := f.hist.Days - 1
	camp := crowd.DefaultCampaign(21)
	camp.AcceptProb = 1
	camp.MaxRounds = 10
	res, err := f.sys.Query(context.Background(), QueryRequest{
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
	res2, err := f.sys.Query(context.Background(), QueryRequest{
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

func TestGSPEstimatorAdapter(t *testing.T) {
	f := newFixture(t, 30, 5, 12)
	var est baselines.Estimator = f.sys.NewGSPEstimator(50)
	if est.Name() != "GSP" {
		t.Error("name")
	}
	got, err := est.Estimate(map[int]float64{0: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 || got[0] != 42 {
		t.Errorf("adapter output wrong: len=%d v0=%v", len(got), got[0])
	}
	if _, err := est.Estimate(map[int]float64{-1: 2}); err == nil {
		t.Error("adapter accepted bad observation")
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
			_, err := f.sys.Query(context.Background(), QueryRequest{
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
