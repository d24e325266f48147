package core_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/crowd"
	"repro/internal/gsp"
	"repro/internal/sim"
	"repro/internal/tslot"
)

// TestQueryResilientMixedProvenance is the PR 9 regression for per-road
// answer labeling: a resilient run whose probe set hits some queried roads
// directly must label those observed, label propagation-reached roads fused,
// and label never-reached roads prior — all inside one answer. The aggregate
// Degraded flag cannot express this; the per-road map must.
func TestQueryResilientMixedProvenance(t *testing.T) {
	f := newFixture(t, 60, 6, 34)
	res := chaosRun(t, f, 30*time.Second)

	if len(res.QueryProvenance) != len(res.QuerySpeeds) {
		t.Fatalf("provenance for %d roads, query answered %d", len(res.QueryProvenance), len(res.QuerySpeeds))
	}
	counts := map[gsp.Provenance]int{}
	for r, p := range res.QueryProvenance {
		counts[p]++
		switch p {
		case gsp.ProvObserved:
			if _, ok := res.Probed[r]; !ok {
				t.Fatalf("road %d labeled observed but was never probed", r)
			}
		case gsp.ProvPrior:
			if _, ok := res.Probed[r]; ok {
				t.Fatalf("road %d labeled prior but holds a probe", r)
			}
		}
	}
	// The chaos scenario probes some queried roads directly and blacks out
	// others; a healthy run must produce a genuinely mixed answer.
	if counts[gsp.ProvObserved] == 0 {
		t.Fatal("no queried road labeled observed — probe set missed the query entirely")
	}
	if counts[gsp.ProvFused] == 0 {
		t.Fatal("no queried road labeled fused — propagation reached nothing?")
	}
	// Full-network provenance rides along on the propagation result.
	if len(res.Propagation.Provenance) != f.net.N() {
		t.Fatalf("propagation provenance covers %d roads, network has %d",
			len(res.Propagation.Provenance), f.net.N())
	}
}

// TestQueryResilientPriorProvenance: total dropout degrades to the prior and
// must say so per road, not just in the aggregate flags.
func TestQueryResilientPriorProvenance(t *testing.T) {
	f := newFixture(t, 40, 6, 35)
	day := f.hist.Days - 1
	slot := tslot.Slot(102)
	camp := crowd.DefaultCampaign(1)
	camp.AcceptProb = 0 // nobody ever answers
	res, err := f.query(context.Background(), sim.QueryRequest{
		Slot: slot, Roads: []int{1, 5, 9}, Budget: 20, Theta: 0.92,
		Workers: crowd.PlaceEverywhere(f.net),
		Seed:    9, Campaign: &camp,
		Truth:  f.truth(day, slot),
		Rounds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("zero-probe run not flagged Degraded")
	}
	for r, p := range res.QueryProvenance {
		if p != gsp.ProvPrior {
			t.Fatalf("road %d labeled %s in a prior-fallback answer", r, p)
		}
	}
	if len(res.QueryProvenance) != 3 {
		t.Fatalf("provenance for %d roads, want 3", len(res.QueryProvenance))
	}
}
