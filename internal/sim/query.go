// Package sim runs the paper's online query (§III-B) against a simulated
// crowd: OCS selects the roads to crowdsource, workers placed on them answer
// from a recorded ground truth with phone noise (the evaluation's
// semi-synthesized setting, §VII-A), and GSP propagates what they reported.
//
// The serving system exposes only the two steps that need no crowd —
// core.Engine's Select and Estimate — and takes real reports over HTTP.
// This package closes the loop offline for `crowdrtse query`, the examples
// and the tests:
//
//	res, err := sim.RunQuery(ctx, sys.Pin(nil), sys.Network(), sim.QueryRequest{
//		Slot: slot, Roads: queried, Budget: 60, Theta: 0.92,
//		Workers: pool, Truth: truth,
//	})
//	speeds := res.QuerySpeeds // road → estimated realtime speed
package sim

import (
	"context"
	"fmt"
	"log/slog"
	"sort"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/gsp"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/ocs"
	"repro/internal/tslot"
)

// QueryRequest is one online realtime-speed query. The zero policy (Rounds
// 0) is one round: select with the whole budget, probe, propagate.
type QueryRequest struct {
	Slot   tslot.Slot
	Roads  []int // R^q, the queried roads
	Budget int   // K
	Theta  float64
	// Workers is the current worker pool; its distinct roads form R^w.
	Workers *crowd.Pool
	// Selector picks the OCS algorithm (default Hybrid).
	Selector core.Selector
	// Seed drives the Random selector and the probe noise.
	Seed int64
	// Probe configures answer generation (noise, aggregation).
	Probe crowd.ProbeConfig
	// Campaign, when non-nil, replaces the direct probe with the full task
	// lifecycle (worker willingness, assignment rounds, partial tasks).
	// Only fulfilled tasks feed GSP.
	Campaign *crowd.CampaignConfig
	// Truth supplies ground-truth speeds to the simulated workers.
	Truth crowd.TruthFunc
	// Rounds bounds the select→probe rounds (default 1). Rounds after the
	// first recycle the budget that failed or partial campaign tasks left
	// unspent into a fresh OCS pass over the worker roads not yet probed or
	// abandoned.
	Rounds int
}

// validate checks a request against a network of n roads before any money
// is spent.
func (req *QueryRequest) validate(n int) error {
	switch {
	case req.Workers == nil:
		return fmt.Errorf("sim: query without a worker pool")
	case req.Truth == nil:
		return fmt.Errorf("sim: query without a truth source (workers need speeds to report)")
	case !req.Slot.Valid():
		return fmt.Errorf("sim: invalid slot %d", req.Slot)
	case req.Budget <= 0:
		return fmt.Errorf("sim: budget %d must be positive", req.Budget)
	case req.Rounds < 0:
		return fmt.Errorf("sim: negative rounds (%d)", req.Rounds)
	}
	for _, r := range req.Roads {
		if r < 0 || r >= n {
			return fmt.Errorf("sim: queried road %d out of range", r)
		}
	}
	return nil
}

// QueryResult is the answer to a query plus full diagnostics.
type QueryResult struct {
	Selected    ocs.Solution    // the last round's crowdsourced roads R^c
	Probed      map[int]float64 // aggregated crowd answers of every round
	Answers     []crowd.Answer  // raw per-worker answers
	Speeds      []float64       // estimated speeds for every road
	QuerySpeeds map[int]float64 // estimates restricted to R^q
	// QueryProvenance labels each queried road's answer: observed (a probe
	// landed on it), fused (propagated from correlated probes) or prior (no
	// realtime signal reached it).
	QueryProvenance map[int]gsp.Provenance
	Propagation     gsp.Result   // GSP diagnostics
	Ledger          crowd.Ledger // budget accounting, one ledger for every round
	// Campaign merges every round's task-lifecycle report when the query
	// ran with a campaign configuration; nil for direct probes.
	Campaign *crowd.CampaignReport
	// Rounds is how many select→probe rounds bought something, and
	// SpentPerRound what each of them spent.
	Rounds        int
	SpentPerRound []int
	// BudgetRecycled is what the rounds after the first spent: money a
	// one-round query would have stranded on failed tasks.
	BudgetRecycled int
	// AbandonedRoads lists the roads excluded after their tasks failed or
	// ended partial, sorted ascending: a road that missed its quota once has
	// shown unreliable coverage, and retrying it usually strands more budget
	// than a correlated substitute.
	AbandonedRoads []int
	// Degraded is set when zero probes succeeded: the speeds are the
	// periodicity prior μ with no realtime signal behind them.
	Degraded bool
	// DeadlineHit is set when ctx expired before the pipeline finished
	// (rounds cut short and/or GSP aborted with its best-so-far field).
	DeadlineHit bool
}

// RunQuery is the online pipeline (§III-B) on e, a core.Engine pinned to one
// model generation (System.Pin, shard.Engine.Pin): rounds of OCS → crowd
// probe, then one GSP over every observation bought. net is the network e
// works on; its road costs are what the crowd is paid.
//
// Each round selects among the worker roads not yet probed or abandoned
// with the budget left, pays the crowd from one ledger shared by every round
// — so the query never overspends req.Budget — and abandons the roads whose
// campaign tasks fell short. Rounds stop when nothing affordable is left,
// when every task of a round fulfilled, when Rounds is used up, or when ctx
// expires.
//
// The query degrades instead of failing: an expired deadline returns GSP's
// best-so-far field, and a query whose probes all failed returns the
// periodicity prior μ with Degraded set. A nil ctx means Background. Each
// probe round records a "probe" span on the trace ctx carries.
//
// Round r uses OCS seed req.Seed+r−1 and probe or campaign seed
// base+1009·(r−1), so the whole query is deterministic for a fixed seed.
func RunQuery(ctx context.Context, e core.Engine, net *network.Network, req QueryRequest) (*QueryResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := req.validate(net.N()); err != nil {
		return nil, err
	}
	rounds := max(req.Rounds, 1)
	costs := net.Costs()
	workerRoads := req.Workers.Roads()
	// The request seed drives the probe noise and the campaign unless they
	// pin their own.
	probe := req.Probe
	if probe.Seed == 0 {
		probe.Seed = req.Seed
	}
	var camp *crowd.CampaignConfig
	out := &QueryResult{Probed: make(map[int]float64), Ledger: crowd.Ledger{Budget: req.Budget}}
	if req.Campaign != nil {
		c := *req.Campaign
		if c.Seed == 0 {
			c.Seed = req.Seed
		}
		camp = &c
		out.Campaign = &crowd.CampaignReport{}
	}
	abandoned := make(map[int]bool)
	tr := obs.FromContext(ctx)

	// selectRound solves OCS over the worker roads not yet probed or
	// abandoned, with the budget left; nothing to buy is an empty solution.
	selectRound := func(round int) (ocs.Solution, error) {
		budget := req.Budget - out.Ledger.Spent
		cands := make([]int, 0, len(workerRoads))
		affordable := false
		for _, r := range workerRoads {
			if _, done := out.Probed[r]; !done && !abandoned[r] {
				cands = append(cands, r)
				affordable = affordable || costs[r] <= budget
			}
		}
		if !affordable {
			return ocs.Solution{}, nil
		}
		return e.Select(ctx, core.SelectRequest{
			Slot: req.Slot, Roads: req.Roads, WorkerRoads: cands,
			Budget: budget, Theta: req.Theta,
			Selector: req.Selector, Seed: req.Seed + int64(round-1),
		})
	}
	// buy pays the crowd for sol's roads from the shared ledger — a task
	// campaign, or a direct probe — and folds what it bought into out. It
	// reports whether a task came back short, which opens a retry round;
	// the short roads are abandoned.
	buy := func(round int, sol ocs.Solution) (retry bool, err error) {
		spentBefore := out.Ledger.Spent
		start := tr.Clock().Now()
		var probed map[int]float64
		var answers []crowd.Answer
		if camp != nil {
			cfg := *camp
			cfg.Seed += 1009 * int64(round-1)
			var rep *crowd.CampaignReport
			if probed, rep, err = req.Workers.RunCampaign(sol.Roads, costs, req.Truth, cfg, &out.Ledger); err != nil {
				return false, fmt.Errorf("sim: campaign round %d: %w", round, err)
			}
			out.Campaign.Merge(rep)
			answers = rep.Answers
			for _, task := range rep.Tasks {
				if task.Status != crowd.TaskFulfilled {
					retry = true
					abandoned[task.Road] = true
				}
			}
		} else {
			cfg := probe
			cfg.Seed += 1009 * int64(round-1)
			if probed, answers, err = req.Workers.Probe(sol.Roads, costs, req.Truth, cfg, &out.Ledger); err != nil {
				return false, fmt.Errorf("sim: probing round %d: %w", round, err)
			}
		}
		spent := out.Ledger.Spent - spentBefore
		tr.Span("probe", start, slog.Int("answers", len(answers)), slog.Int("spent", spent))
		out.Selected = sol
		out.Answers = append(out.Answers, answers...)
		for r, v := range probed {
			out.Probed[r] = v
		}
		out.Rounds = round
		out.SpentPerRound = append(out.SpentPerRound, spent)
		if round > 1 {
			out.BudgetRecycled += spent
		}
		return retry, nil
	}

	for round := 1; round <= rounds; round++ {
		if ctx.Err() != nil {
			out.DeadlineHit = true
			break
		}
		sol, err := selectRound(round)
		if err != nil {
			if round == 1 {
				return nil, fmt.Errorf("sim: OCS: %w", err)
			}
			// A re-selection failure degrades the answer; it must not lose
			// the observations already paid for.
			break
		}
		retry := false
		if len(sol.Roads) > 0 {
			if retry, err = buy(round, sol); err != nil {
				return nil, err
			}
		}
		if !retry {
			break
		}
	}

	for r := range abandoned {
		out.AbandonedRoads = append(out.AbandonedRoads, r)
	}
	sort.Ints(out.AbandonedRoads)
	// With zero observations GSP has no sources and the field rests at the
	// periodicity prior μ: the explicit graceful-degradation fallback.
	prop, err := e.Estimate(ctx, req.Slot, out.Probed)
	if err != nil {
		return nil, fmt.Errorf("sim: GSP: %w", err)
	}
	out.Propagation = prop
	out.Speeds = prop.Speeds
	out.QuerySpeeds = make(map[int]float64, len(req.Roads))
	out.QueryProvenance = make(map[int]gsp.Provenance, len(req.Roads))
	for _, r := range req.Roads {
		out.QuerySpeeds[r] = prop.Speeds[r]
		if r < len(prop.Provenance) {
			out.QueryProvenance[r] = prop.Provenance[r]
		}
	}
	out.Degraded = len(out.Probed) == 0
	out.DeadlineHit = out.DeadlineHit || prop.Aborted
	return out, nil
}
