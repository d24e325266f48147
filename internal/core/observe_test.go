package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/crowd"
	"repro/internal/obs"
	"repro/internal/tslot"
)

// scriptOutcome captures everything the scripted query mix produced, so the
// exact-count assertions can be derived from the actual results rather than
// hard-coded guesses.
type scriptOutcome struct {
	snap map[string]float64

	plainLedgers  int
	plainAnswers  int
	adaptive      *QueryResult
	resilient     *QueryResult
	adaptiveProbe int // probe rounds recorded for the adaptive query
}

// runScriptedQueries builds a fresh fixture on a FakeClock-backed pipeline
// and drives a fixed query mix through every pipeline flavor. Deterministic:
// same inputs, same seeds, same FakeClock steps.
func runScriptedQueries(t *testing.T) scriptOutcome {
	t.Helper()
	f := newFixture(t, 40, 5, 11)
	reg := obs.NewRegistry()
	clock := obs.NewFakeClock(time.Unix(1_700_000_000, 0), time.Millisecond)
	pipe := obs.NewPipeline(reg, clock)
	f.sys.Instrument(pipe)
	f.sys.RegisterMetrics(reg)

	pool := crowd.PlaceEverywhere(f.net)
	slot := tslot.Slot(100)
	truth := f.truth(0, slot)
	req := QueryRequest{
		Slot: slot, Roads: []int{1, 5, 9}, Budget: 30, Theta: 0.9,
		Workers: pool, Truth: truth, Seed: 7,
	}

	out := scriptOutcome{}

	// Three plain queries, one per greedy selector.
	for _, sel := range []Selector{Hybrid, Ratio, Objective} {
		r := req
		r.Selector = sel
		res, err := f.sys.Query(context.Background(), r)
		if err != nil {
			t.Fatalf("query %v: %v", sel, err)
		}
		out.plainLedgers += res.Ledger.Spent
		out.plainAnswers += len(res.Answers)
	}

	// One failing query: invalid slot counts as a query and an error.
	bad := req
	bad.Slot = tslot.Slot(-1)
	if _, err := f.sys.Query(context.Background(), bad); err == nil {
		t.Fatal("invalid slot should fail")
	}

	// One adaptive query (2 stages, impossible SD target so both stages run
	// unless the data converges early — either way the diagnostics tell us).
	probeBefore := pipe.ProbeRounds.Value()
	ar, err := f.sys.Query(context.Background(), staged(req, 0, 2))
	if err != nil {
		t.Fatalf("adaptive: %v", err)
	}
	out.adaptive = ar
	out.adaptiveProbe = int(pipe.ProbeRounds.Value() - probeBefore)

	// One resilient query with the default campaign.
	camp := crowd.DefaultCampaign(req.Seed)
	rreq := req
	rreq.Rounds, rreq.Campaign = 3, &camp
	rr, err := f.sys.Query(context.Background(), rreq)
	if err != nil {
		t.Fatalf("resilient: %v", err)
	}
	out.resilient = rr

	out.snap = reg.Snapshot()
	return out
}

func TestPipelineCountsExactly(t *testing.T) {
	o := runScriptedQueries(t)
	snap := o.snap

	expect := func(name string, want float64) {
		t.Helper()
		if got := snap[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}

	// Query-level counters: 3 plain ok + 1 plain error, 1 adaptive, 1 resilient.
	expect(obs.MQueries, 4+1+1)
	expect(obs.MQueryErrors, 1)
	expect(obs.MQuerySeconds+"_count", 6)

	// OCS: one solve per plain success, per adaptive stage, per resilient round.
	wantSolves := float64(3 + o.adaptive.Rounds + o.resilient.Rounds)
	expect(obs.MOCSSolves, wantSolves)
	expect(obs.MOCSSeconds+"_count", wantSolves)

	// GSP: one run per plain success, per adaptive stage, plus the resilient
	// final propagation.
	wantGSP := float64(3 + o.adaptive.Rounds + 1)
	expect(obs.MGSPRuns, wantGSP)
	expect(obs.MGSPSeconds+"_count", wantGSP)
	if snap[obs.MGSPConverged]+snap[obs.MGSPAborted] > snap[obs.MGSPRuns] {
		t.Errorf("converged %v + aborted %v exceeds runs %v",
			snap[obs.MGSPConverged], snap[obs.MGSPAborted], snap[obs.MGSPRuns])
	}
	if snap[obs.MGSPIterations] < snap[obs.MGSPRuns] {
		t.Errorf("iterations %v below runs %v", snap[obs.MGSPIterations], snap[obs.MGSPRuns])
	}

	// Probe accounting: 3 plain rounds + adaptive stage rounds + resilient rounds.
	expect(obs.MProbeRounds, float64(3+o.adaptiveProbe+o.resilient.Rounds))
	expect(obs.MProbeAnswers, float64(o.plainAnswers+len(o.adaptive.Answers)+len(o.resilient.Answers)))
	expect(obs.MProbeSeconds+"_count", float64(3+o.adaptiveProbe+o.resilient.Rounds))

	// Budget: every coin spent is counted once, recycling matches diagnostics.
	wantSpent := float64(o.plainLedgers + o.adaptive.Ledger.Spent + o.resilient.Ledger.Spent)
	expect(obs.MBudgetSpent, wantSpent)
	expect(obs.MBudgetRecycled, float64(o.resilient.BudgetRecycled))

	// Correlation rows were computed at least once (cold oracle) and the
	// func-backed cache counters surfaced in the same snapshot.
	if snap[obs.MCorrRowSeconds+"_count"] == 0 {
		t.Error("no correlation row computations recorded")
	}
	if snap[MOracleCacheMisses] == 0 {
		t.Error("oracle cache misses should be exported via CounterFunc")
	}
	if snap[MModelVersion] != 1 {
		t.Errorf("model version gauge = %v, want 1", snap[MModelVersion])
	}
}

// TestPipelineDeterministic runs the identical scripted mix twice on fresh
// fixtures and requires bit-identical snapshots — counters, histogram bucket
// contents, and FakeClock-measured latency sums included.
//
// Two splits depend on how the parallel warm pool and the concurrent
// Hybrid-Greedy passes interleave, not on the accounting: a row lookup that
// races the row's computation counts as an inflight wait instead of a hit,
// and FakeClock steps taken by overlapping row computations fall inside more
// than one row's span. For those the schedule-free totals are compared: hits
// plus inflight waits, and the number of row computations.
func TestPipelineDeterministic(t *testing.T) {
	a := runScriptedQueries(t).snap
	b := runScriptedQueries(t).snap
	for _, s := range []map[string]float64{a, b} {
		s[MOracleCacheHits] += s[MOracleCacheInflight]
		delete(s, MOracleCacheInflight)
		for _, q := range []string{"_sum", "_p50", "_p95", "_p99"} {
			delete(s, obs.MCorrRowSeconds+q)
		}
	}
	if len(a) != len(b) {
		t.Fatalf("snapshot sizes differ: %d vs %d", len(a), len(b))
	}
	for k, va := range a {
		if vb, ok := b[k]; !ok || va != vb {
			t.Errorf("%s: run1 = %v, run2 = %v", k, va, vb)
		}
	}
}

// TestTraceSpansCoverStages attaches a trace to a query context and checks
// the OCS, probe and GSP stages all recorded spans with FakeClock-exact
// durations.
func TestTraceSpansCoverStages(t *testing.T) {
	f := newFixture(t, 30, 4, 5)
	reg := obs.NewRegistry()
	clock := obs.NewFakeClock(time.Unix(0, 0), time.Millisecond)
	f.sys.Instrument(obs.NewPipeline(reg, clock))

	pool := crowd.PlaceEverywhere(f.net)
	slot := tslot.Slot(60)
	tr := obs.NewTrace("q-1", clock)
	ctx := obs.WithTrace(context.Background(), tr)
	_, err := f.sys.Query(ctx, QueryRequest{
		Slot: slot, Roads: []int{2, 4}, Budget: 20, Theta: 0.9,
		Workers: pool, Truth: f.truth(0, slot), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, s := range tr.Spans() {
		got[s.Name] = true
		if s.Duration <= 0 {
			t.Errorf("span %s has non-positive duration %v", s.Name, s.Duration)
		}
	}
	for _, want := range []string{"ocs_select", "probe", "gsp"} {
		if !got[want] {
			t.Errorf("missing span %q (got %v)", want, got)
		}
	}
}
