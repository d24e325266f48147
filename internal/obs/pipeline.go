package obs

import "sync"

// Metric names of the online pipeline. Exported so the server's healthz
// rollup, the exposition tests and the documentation agree on one spelling.
const (
	MQueries       = "crowdrtse_queries_total"
	MQueryErrors   = "crowdrtse_query_errors_total"
	MQueryDegraded = "crowdrtse_query_degraded_total"
	MQueryDeadline = "crowdrtse_query_deadline_total"
	MQuerySeconds  = "crowdrtse_query_seconds"

	MOCSSolves        = "crowdrtse_ocs_select_total"
	MOCSSelectedRoads = "crowdrtse_ocs_selected_roads_total"
	MOCSSeconds       = "crowdrtse_ocs_select_seconds"

	MProbeRounds  = "crowdrtse_probe_rounds_total"
	MProbeAnswers = "crowdrtse_probe_answers_total"
	MProbeSeconds = "crowdrtse_probe_seconds"

	MBudgetSpent    = "crowdrtse_budget_spent_total"
	MBudgetRecycled = "crowdrtse_budget_recycled_total"

	MGSPRuns       = "crowdrtse_gsp_runs_total"
	MGSPIterations = "crowdrtse_gsp_iterations_total"
	MGSPConverged  = "crowdrtse_gsp_converged_total"
	MGSPAborted    = "crowdrtse_gsp_aborted_total"
	MGSPSeconds    = "crowdrtse_gsp_seconds"

	// Warm-start counters (PR 5): propagations seeded from a previous
	// estimate, and the sweeps they saved relative to that estimate's own
	// sweep count.
	MGSPWarmStarts  = "crowdrtse_gsp_warm_starts_total"
	MWarmSweepSaved = "crowdrtse_warmstart_sweeps_saved_total"

	// Batch/coalescing counters (PR 5): shared passes executed by the
	// batcher, member queries folded into them, and the queries that rode an
	// already-running or shared pass instead of paying for their own.
	MBatchGroups      = "crowdrtse_batch_groups_total"
	MBatchMembers     = "crowdrtse_batch_members_total"
	MCoalescedQueries = "crowdrtse_coalesced_queries_total"

	MCorrRowSeconds = "crowdrtse_corr_row_compute_seconds"

	MStreamReports         = "crowdrtse_stream_reports_total"
	MStreamReportsRejected = "crowdrtse_stream_reports_rejected_total"

	// Temporal-filter counters (PR 8): predict steps over slot transitions,
	// probe-measurement updates, GSP pseudo-observation fallbacks on
	// probe-less slots, and the forecast horizon-depth histogram (bucket
	// bounds are slots, recorded as integer seconds). SubscriptionNoop counts
	// standing-query refreshes short-circuited to the cached posterior
	// because the slot's observation digest was unchanged.
	MTemporalPredicts  = "crowdrtse_temporal_predicts_total"
	MTemporalUpdates   = "crowdrtse_temporal_updates_total"
	MTemporalPseudoObs = "crowdrtse_temporal_pseudo_obs_total"
	MForecastDepth     = "crowdrtse_forecast_depth_slots"
	MSubscriptionNoop  = "crowdrtse_subscription_noop_refreshes_total"

	// Admission-control names (PR 6). The per-tenant counters are registered
	// with label-in-name constants by qos.Controller.RegisterMetrics through
	// the CounterFunc/GaugeFunc bridges, reading the same atomics the healthz
	// rollup reads.
	MQoSPressure       = "crowdrtse_qos_pressure"
	MQoSAdmitted       = "crowdrtse_qos_admitted_total"
	MQoSShed           = "crowdrtse_qos_shed_total"
	MQoSTier           = "crowdrtse_qos_tier_total"
	MQoSQuotaRejected  = "crowdrtse_qos_quota_rejected_total"
	MQoSQuotaRemaining = "crowdrtse_qos_probe_quota_remaining"
)

// OCSMetrics is the instrument handle package ocs accepts on a Problem:
// solve count, total roads selected, and solve latency. All fields are
// nil-safe; the zero value is a no-op set.
type OCSMetrics struct {
	Solves   *Counter
	Selected *Counter
	Latency  *Histogram
	Clock    Clock // nil disables latency measurement
}

// GSPMetrics is the instrument handle package gsp accepts in Options:
// propagation runs, total sweeps, convergence/abort outcomes, latency, and
// the warm-start amortization counters.
type GSPMetrics struct {
	Runs       *Counter
	Iterations *Counter
	Converged  *Counter
	Aborted    *Counter
	Latency    *Histogram
	Clock      Clock // nil disables latency measurement

	// WarmStarts counts propagations seeded from a previous estimate
	// (gsp.Options.WithInitial); SweepsSaved accumulates how many sweeps
	// those runs saved relative to the sweep count of the estimate they were
	// seeded from.
	WarmStarts  *Counter
	SweepsSaved *Counter
}

// BatchMetrics is the instrument handle core.Batcher records into: shared
// passes executed (Groups), member queries folded into them (Members), and
// queries that were answered by a pass another caller paid for (Coalesced =
// Members − Groups plus singleflight followers).
type BatchMetrics struct {
	Groups    *Counter
	Members   *Counter
	Coalesced *Counter

	// NoopRefreshes counts Subscription refreshes answered from the cached
	// posterior because the slot's observations were unchanged (PR 8).
	NoopRefreshes *Counter
}

// TemporalMetrics is the instrument handle of the state-space filter
// (package temporal): predict steps, measurement updates, pseudo-observation
// fallbacks, and the forecast-depth histogram (horizons in slots, recorded
// as integer seconds — see ForecastDepthBuckets).
type TemporalMetrics struct {
	Predicts      *Counter
	Updates       *Counter
	PseudoObs     *Counter
	ForecastDepth *Histogram
}

// ForecastDepthBuckets are the forecast-depth histogram bounds, in slots.
var ForecastDepthBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 24}

// StreamMetrics is the instrument handle the stream collector accepts:
// accepted and rejected report counts.
type StreamMetrics struct {
	Accepted *Counter
	Rejected *Counter
}

// Pipeline is the standard instrument set of the online estimation pipeline
// (OCS → crowd probing → GSP), wired once at startup and shared by every
// stage. Counters are plain atomics; the per-event cost is a few atomic adds
// and zero allocations.
type Pipeline struct {
	Clock Clock

	// Query-level counters (core.RunQuery, whatever the policy).
	Queries       *Counter
	QueryErrors   *Counter
	QueryDegraded *Counter
	QueryDeadline *Counter
	QueryLatency  *Histogram

	// Stage instruments, shared with the stage packages.
	OCS OCSMetrics
	GSP GSPMetrics

	// Batch is the coalescing-engine instrument block (core.Batcher).
	Batch BatchMetrics

	// Temporal is the state-space filter instrument block (package temporal).
	Temporal TemporalMetrics

	ProbeRounds  *Counter
	ProbeAnswers *Counter
	ProbeLatency *Histogram

	BudgetSpent    *Counter
	BudgetRecycled *Counter

	// CorrRowCompute is the Dijkstra row-computation latency of the
	// correlation oracle's miss path (hits are lock-free and unmeasured).
	CorrRowCompute *Histogram

	Stream StreamMetrics
}

// NewPipeline registers the full pipeline instrument set on reg. clock nil
// selects the system clock.
func NewPipeline(reg *Registry, clock Clock) *Pipeline {
	if clock == nil {
		clock = SystemClock()
	}
	p := &Pipeline{
		Clock:         clock,
		Queries:       reg.Counter(MQueries, "online queries served by the query pipeline"),
		QueryErrors:   reg.Counter(MQueryErrors, "queries that returned an error"),
		QueryDegraded: reg.Counter(MQueryDegraded, "queries answered with zero successful probes (the periodicity prior)"),
		QueryDeadline: reg.Counter(MQueryDeadline, "queries cut short by a context deadline"),
		QueryLatency:  reg.Histogram(MQuerySeconds, "end-to-end online query latency", nil),
		OCS: OCSMetrics{
			Solves:   reg.Counter(MOCSSolves, "OCS solver invocations"),
			Selected: reg.Counter(MOCSSelectedRoads, "crowdsourced roads selected by OCS"),
			Latency:  reg.Histogram(MOCSSeconds, "OCS solve latency", nil),
			Clock:    clock,
		},
		GSP: GSPMetrics{
			Runs:        reg.Counter(MGSPRuns, "GSP propagation runs"),
			Iterations:  reg.Counter(MGSPIterations, "GSP sweeps executed"),
			Converged:   reg.Counter(MGSPConverged, "GSP runs that converged below epsilon"),
			Aborted:     reg.Counter(MGSPAborted, "GSP runs aborted by a deadline"),
			Latency:     reg.Histogram(MGSPSeconds, "GSP propagation latency", nil),
			Clock:       clock,
			WarmStarts:  reg.Counter(MGSPWarmStarts, "GSP runs warm-started from a previous estimate"),
			SweepsSaved: reg.Counter(MWarmSweepSaved, "GSP sweeps saved by warm-starting vs the seeding estimate"),
		},
		Batch: BatchMetrics{
			Groups:        reg.Counter(MBatchGroups, "shared batch passes executed by the coalescing engine"),
			Members:       reg.Counter(MBatchMembers, "member queries folded into shared batch passes"),
			Coalesced:     reg.Counter(MCoalescedQueries, "queries answered by a pass another caller paid for"),
			NoopRefreshes: reg.Counter(MSubscriptionNoop, "subscription refreshes served from the cached posterior (unchanged observations)"),
		},
		Temporal: TemporalMetrics{
			Predicts:      reg.Counter(MTemporalPredicts, "temporal-filter predict steps over slot transitions"),
			Updates:       reg.Counter(MTemporalUpdates, "temporal-filter probe measurement updates"),
			PseudoObs:     reg.Counter(MTemporalPseudoObs, "temporal-filter GSP pseudo-observation fallbacks"),
			ForecastDepth: reg.Histogram(MForecastDepth, "forecast horizon depth in slots (recorded as seconds)", ForecastDepthBuckets),
		},
		ProbeRounds:    reg.Counter(MProbeRounds, "crowd probe/campaign rounds executed"),
		ProbeAnswers:   reg.Counter(MProbeAnswers, "raw worker answers collected"),
		ProbeLatency:   reg.Histogram(MProbeSeconds, "probe/campaign round latency", nil),
		BudgetSpent:    reg.Counter(MBudgetSpent, "crowdsourcing budget spent"),
		BudgetRecycled: reg.Counter(MBudgetRecycled, "budget recycled into re-selection rounds"),
		CorrRowCompute: reg.Histogram(MCorrRowSeconds, "correlation row Dijkstra computation latency", nil),
		Stream: StreamMetrics{
			Accepted: reg.Counter(MStreamReports, "speed reports accepted by the collector"),
			Rejected: reg.Counter(MStreamReportsRejected, "speed reports rejected as malformed or implausible"),
		},
	}
	return p
}

var (
	discardOnce sync.Once
	discardPipe *Pipeline
)

// Discard returns a shared pipeline backed by a registry nobody scrapes —
// the default for systems constructed without observability wiring. The
// instruments still count (atomics are near-free); the numbers are simply
// never exported.
func Discard() *Pipeline {
	discardOnce.Do(func() {
		discardPipe = NewPipeline(NewRegistry(), SystemClock())
	})
	return discardPipe
}
