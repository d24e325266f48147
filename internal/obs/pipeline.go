package obs

import "sync"

// Metric names of the online pipeline. Exported so the server's healthz
// rollup, the exposition tests and the documentation agree on one spelling.
const (
	MOCSSolves        = "crowdrtse_ocs_select_total"
	MOCSSelectedRoads = "crowdrtse_ocs_selected_roads_total"
	MOCSSeconds       = "crowdrtse_ocs_select_seconds"

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

	// Coalescing counter: the requests that rode a run another caller had
	// already started instead of paying for their own.
	MCoalescedQueries = "crowdrtse_coalesced_queries_total"

	MCorrRowSeconds = "crowdrtse_corr_row_compute_seconds"

	MStreamReports         = "crowdrtse_stream_reports_total"
	MStreamReportsRejected = "crowdrtse_stream_reports_rejected_total"

	// Temporal-filter counters: predict steps over slot transitions,
	// per-road measurement updates, and the forecast horizon-depth histogram
	// (bucket bounds are slots, recorded as integer seconds).
	// SubscriptionNoop counts /v1/subscribe checks that found the slot's
	// report mark unchanged and so ran no propagation.
	MTemporalPredicts = "crowdrtse_temporal_predicts_total"
	MTemporalUpdates  = "crowdrtse_temporal_updates_total"
	MForecastDepth    = "crowdrtse_forecast_depth_slots"
	MSubscriptionNoop = "crowdrtse_subscription_noop_refreshes_total"

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

// BatchMetrics is the instrument handle of the serving Batcher and the
// subscriptions it serves.
type BatchMetrics struct {
	// Coalesced counts singleflight followers: requests that waited for a
	// run another caller had already started.
	Coalesced *Counter

	// NoopRefreshes counts /v1/subscribe checks that found the slot's
	// report mark unchanged and so ran no propagation.
	NoopRefreshes *Counter
}

// TemporalMetrics is the instrument handle of the state-space filter
// (package temporal): predict steps, measurement updates and the
// forecast-depth histogram (horizons in slots, recorded as integer seconds —
// see ForecastDepthBuckets).
type TemporalMetrics struct {
	Predicts      *Counter
	Updates       *Counter
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

// Pipeline is the standard instrument set of the serving stages (OCS, GSP,
// the correlation rows, the Batcher, the temporal filter and the report
// collector), wired once at startup and shared by every stage. Counters are
// plain atomics; the per-event cost is a few atomic adds and zero
// allocations. Crowd probing is not a serving stage: it is timed only as the
// "probe" span of a trace.
type Pipeline struct {
	Clock Clock

	// Stage instruments, shared with the stage packages.
	OCS OCSMetrics
	GSP GSPMetrics

	// Batch is the serving Batcher's instrument block (core.Batcher and the
	// /v1/subscribe digest loop).
	Batch BatchMetrics

	// Temporal is the state-space filter instrument block (package temporal).
	Temporal TemporalMetrics

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
		Clock: clock,
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
			Coalesced:     reg.Counter(MCoalescedQueries, "requests that waited for a run another caller had already started"),
			NoopRefreshes: reg.Counter(MSubscriptionNoop, "subscription checks that found the slot's report mark unchanged (no propagation)"),
		},
		Temporal: TemporalMetrics{
			Predicts:      reg.Counter(MTemporalPredicts, "temporal-filter predict steps over slot transitions"),
			Updates:       reg.Counter(MTemporalUpdates, "temporal-filter probe measurement updates"),
			ForecastDepth: reg.Histogram(MForecastDepth, "forecast horizon depth in slots (recorded as seconds)", ForecastDepthBuckets),
		},
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
