package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/crowd"
	"repro/internal/gsp"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/ocs"
	"repro/internal/tslot"
)

// QueryRequest is one online realtime-speed query. The zero policy
// (Stages, Rounds, TargetSD, RetryPartial all zero) is one round: select
// with the whole budget, probe, propagate.
type QueryRequest struct {
	Slot   tslot.Slot
	Roads  []int // R^q, the queried roads
	Budget int   // K
	Theta  float64
	// Workers is the current worker pool; its distinct roads form R^w.
	Workers *crowd.Pool
	// Selector picks the OCS algorithm (default Hybrid).
	Selector Selector
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

	// Stages > 1 spends the budget adaptively: round s may spend up to
	// Budget·s/Stages in total, and after each round the query stops once
	// every queried road's posterior SD is at or below TargetSD, so crowd
	// money goes only where the model is still unsure. 0 means one stage.
	Stages int
	// TargetSD is the posterior SD the stages aim for (≥ 0).
	TargetSD float64
	// Rounds bounds the select→probe rounds (default 1, at least Stages).
	// Rounds past the last stage recycle the budget that failed or partial
	// campaign tasks left unspent into a fresh OCS pass over the worker
	// roads not yet probed or abandoned.
	Rounds int
	// RetryPartial keeps roads whose task ended partial as candidates of
	// later rounds. By default they are abandoned: a road that missed its
	// quota once has shown unreliable coverage, and retrying it usually
	// strands more budget than a correlated substitute.
	RetryPartial bool
}

// validate checks a request against a network of n roads before any money
// is spent.
func (req *QueryRequest) validate(n int) error {
	switch {
	case req.Workers == nil:
		return fmt.Errorf("core: query without a worker pool")
	case req.Truth == nil:
		return fmt.Errorf("core: query without a truth source (workers need speeds to report)")
	case !req.Slot.Valid():
		return fmt.Errorf("core: invalid slot %d", req.Slot)
	case req.Budget <= 0:
		return fmt.Errorf("core: budget %d must be positive", req.Budget)
	case req.Stages < 0 || req.Rounds < 0:
		return fmt.Errorf("core: negative stages (%d) or rounds (%d)", req.Stages, req.Rounds)
	case !(req.TargetSD >= 0):
		return fmt.Errorf("core: target SD %v must be non-negative", req.TargetSD)
	}
	for _, r := range req.Roads {
		if r < 0 || r >= n {
			return fmt.Errorf("core: queried road %d out of range", r)
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
	// MaxQuerySD is the largest posterior SD over the queried roads.
	MaxQuerySD  float64
	Propagation gsp.Result   // GSP diagnostics
	Ledger      crowd.Ledger // budget accounting, one ledger for every round
	// Campaign merges every round's task-lifecycle report when the query
	// ran with a campaign configuration; nil for direct probes.
	Campaign *crowd.CampaignReport
	// Rounds is how many select→probe rounds bought something, and
	// SpentPerRound what each of them spent.
	Rounds        int
	SpentPerRound []int
	// BudgetRecycled is what the rounds after the last stage spent: money a
	// one-round query would have stranded on failed tasks.
	BudgetRecycled int
	// AbandonedRoads lists the roads excluded after their tasks failed (or
	// ended partial, unless RetryPartial), sorted ascending.
	AbandonedRoads []int
	// Degraded is set when zero probes succeeded: the speeds are the
	// periodicity prior μ with no realtime signal behind them.
	Degraded bool
	// DeadlineHit is set when ctx expired before the pipeline finished
	// (rounds cut short and/or GSP aborted with its best-so-far field).
	DeadlineHit bool
}

// answer fills the queried roads' view of the propagation.
func (res *QueryResult) answer(roads []int) {
	p := &res.Propagation
	res.QuerySpeeds = make(map[int]float64, len(roads))
	res.QueryProvenance = make(map[int]gsp.Provenance, len(roads))
	res.MaxQuerySD = 0
	for _, r := range roads {
		res.QuerySpeeds[r] = p.Speeds[r]
		if r < len(p.Provenance) {
			res.QueryProvenance[r] = p.Provenance[r]
		}
		if r < len(p.SD) && p.SD[r] > res.MaxQuerySD {
			res.MaxQuerySD = p.SD[r]
		}
	}
}

// Engine is what the query round loop runs on: OCS selection and GSP
// estimation in one road numbering, the network whose costs the crowd is
// paid by, and the instrument set the loop counts into. A System pinned to
// one model generation (System.Query, the Batcher's shared pass) and
// shard.Engine implement it.
type Engine interface {
	Network() *network.Network
	Obs() *obs.Pipeline
	Select(ctx context.Context, req SelectRequest) (ocs.Solution, error)
	Estimate(ctx context.Context, t tslot.Slot, observed map[int]float64) (gsp.Result, error)
}

// RunQuery is the online pipeline (§III-B) on e: rounds of OCS → crowd
// probe, then GSP over every observation bought.
//
// Each round selects among the worker roads not yet probed or abandoned,
// with the budget the policy opens for it (see QueryRequest.Stages), pays
// the crowd from one ledger shared by every round — so the query never
// overspends req.Budget — and abandons the roads whose campaign tasks
// failed. Rounds stop when nothing affordable is left, when every task
// fulfilled after the last stage, when the stages reach TargetSD, when
// Rounds is used up, or when ctx expires.
//
// The query degrades instead of failing: an expired deadline returns GSP's
// best-so-far field, and a query whose probes all failed returns the
// periodicity prior μ with Degraded set. A nil ctx means Background.
//
// Round r uses OCS seed req.Seed+r−1 and probe or campaign seed
// base+1009·(r−1), so the whole query is deterministic for a fixed seed.
func RunQuery(ctx context.Context, e Engine, req QueryRequest) (*QueryResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pipe := e.Obs()
	pipe.Queries.Inc()
	start := pipe.Clock.Now()
	res, err := runRounds(ctx, e, pipe, req)
	pipe.QueryLatency.Observe(pipe.Clock.Since(start))
	if err != nil {
		pipe.QueryErrors.Inc()
		return nil, err
	}
	if res.Degraded {
		pipe.QueryDegraded.Inc()
	}
	if res.DeadlineHit {
		pipe.QueryDeadline.Inc()
	}
	pipe.BudgetRecycled.Add(res.BudgetRecycled)
	return res, nil
}

func runRounds(ctx context.Context, e Engine, pipe *obs.Pipeline, req QueryRequest) (*QueryResult, error) {
	net := e.Network()
	if err := req.validate(net.N()); err != nil {
		return nil, err
	}
	stages := max(req.Stages, 1)
	rounds := max(req.Rounds, stages)
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
	// abandoned, with the budget the round's stage opens; nothing to buy is
	// an empty solution.
	selectRound := func(round int) (ocs.Solution, error) {
		budget := req.Budget*min(round, stages)/stages - out.Ledger.Spent
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
		return e.Select(ctx, SelectRequest{
			Slot: req.Slot, Roads: req.Roads, WorkerRoads: cands,
			Budget: budget, Theta: req.Theta,
			Selector: req.Selector, Seed: req.Seed + int64(round-1),
		})
	}
	// buy pays the crowd for sol's roads from the shared ledger — a task
	// campaign, or a direct probe — and folds what it bought into out. It
	// reports whether a task came back short, which opens a retry round;
	// the short roads are abandoned (partial ones unless RetryPartial).
	buy := func(round int, sol ocs.Solution) (retry bool, err error) {
		spentBefore := out.Ledger.Spent
		start := pipe.Clock.Now()
		var probed map[int]float64
		var answers []crowd.Answer
		if camp != nil {
			cfg := *camp
			cfg.Seed += 1009 * int64(round-1)
			var rep *crowd.CampaignReport
			if probed, rep, err = req.Workers.RunCampaign(sol.Roads, costs, req.Truth, cfg, &out.Ledger); err != nil {
				return false, fmt.Errorf("core: campaign round %d: %w", round, err)
			}
			out.Campaign.Merge(rep)
			answers = rep.Answers
			for _, task := range rep.Tasks {
				if task.Status == crowd.TaskFulfilled {
					continue
				}
				retry = true
				if task.Status == crowd.TaskFailed || !req.RetryPartial {
					abandoned[task.Road] = true
				}
			}
		} else {
			cfg := probe
			cfg.Seed += 1009 * int64(round-1)
			if probed, answers, err = req.Workers.Probe(sol.Roads, costs, req.Truth, cfg, &out.Ledger); err != nil {
				return false, fmt.Errorf("core: probing round %d: %w", round, err)
			}
		}
		spent := out.Ledger.Spent - spentBefore
		observeProbeRound(pipe, tr, start, len(answers), spent)
		out.Selected = sol
		out.Answers = append(out.Answers, answers...)
		for r, v := range probed {
			out.Probed[r] = v
		}
		out.Rounds = round
		out.SpentPerRound = append(out.SpentPerRound, spent)
		if round > stages {
			out.BudgetRecycled += spent
		}
		return retry, nil
	}
	// propagate runs GSP over the observations bought so far, unless the
	// last run already covers them.
	var prop *gsp.Result
	propagate := func() error {
		if prop != nil {
			return nil
		}
		p, err := e.Estimate(ctx, req.Slot, out.Probed)
		if err != nil {
			return fmt.Errorf("core: GSP: %w", err)
		}
		prop = &p
		out.Propagation = p
		out.answer(req.Roads)
		return nil
	}

	for round := 1; round <= rounds; round++ {
		if ctx.Err() != nil {
			out.DeadlineHit = true
			break
		}
		sol, err := selectRound(round)
		if err != nil {
			if round == 1 {
				return nil, fmt.Errorf("core: OCS: %w", err)
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
			prop = nil
		}
		if stages > 1 {
			if err := propagate(); err != nil {
				return nil, err
			}
			if out.MaxQuerySD <= req.TargetSD {
				break
			}
		}
		if round >= stages && !retry {
			break
		}
	}

	for r := range abandoned {
		out.AbandonedRoads = append(out.AbandonedRoads, r)
	}
	sort.Ints(out.AbandonedRoads)
	// With zero observations GSP has no sources and the field rests at the
	// periodicity prior μ: the explicit graceful-degradation fallback.
	if err := propagate(); err != nil {
		return nil, err
	}
	out.Speeds = prop.Speeds
	out.Degraded = len(out.Probed) == 0
	out.DeadlineHit = out.DeadlineHit || prop.Aborted
	return out, nil
}

// Query answers one online query (RunQuery) on the serving model
// generation, pinned for the whole query: every round selects and
// propagates on the same parameters even if a hot-swap lands mid-query
// (RCU — the swap retires the state only after the query drops it).
func (s *System) Query(ctx context.Context, req QueryRequest) (*QueryResult, error) {
	return RunQuery(ctx, pinned{s, s.current(), nil}, req)
}

// pinned is a System fixed to one model state, with an optional warm-start
// seed for its propagations (the Batcher's shared pass).
type pinned struct {
	*System
	st      *modelState
	initial *gsp.Result
}

func (p pinned) Select(ctx context.Context, req SelectRequest) (ocs.Solution, error) {
	return p.selectState(ctx, p.st, req)
}

func (p pinned) Estimate(ctx context.Context, t tslot.Slot, observed map[int]float64) (gsp.Result, error) {
	return p.estimateState(ctx, p.st, t, observed, p.initial)
}
