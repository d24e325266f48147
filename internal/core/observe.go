package core

import (
	"log/slog"

	"repro/internal/obs"
	"repro/internal/ocs"
)

// Metric names exported by System.RegisterMetrics. The oracle-cache series
// are CounterFunc/GaugeFunc views over OracleCacheReport — the same counters
// /v1/healthz serializes, so the two surfaces can never diverge.
const (
	MOracleCacheHits       = "crowdrtse_oracle_cache_hits_total"
	MOracleCacheMisses     = "crowdrtse_oracle_cache_misses_total"
	MOracleCacheDeepenings = "crowdrtse_oracle_cache_deepenings_total"
	MOracleCacheInflight   = "crowdrtse_oracle_cache_inflight_waits_total"
	MOracleCacheEvictions  = "crowdrtse_oracle_cache_evictions_total"
	MOracleCacheOracles    = "crowdrtse_oracle_cache_resident_oracles"
	MOracleCacheRows       = "crowdrtse_oracle_cache_resident_rows"
	MOracleCacheBytes      = "crowdrtse_oracle_cache_resident_bytes"
	MModelVersion          = "crowdrtse_model_version"
	MModelSwaps            = "crowdrtse_model_swaps_total"
)

// Instrument attaches a pipeline instrument set to the system. Every stage it
// runs (OCS, GSP, the correlation-row miss path, the Batcher) records into p
// from then on. Safe to call concurrently with requests: a stage already
// running keeps the instrument set it started with.
func (s *System) Instrument(p *obs.Pipeline) {
	if p == nil {
		return
	}
	s.obsPipe.Store(p)
}

// Obs returns the attached instrument set, or the shared discard set when
// none was attached — callers never branch on nil.
func (s *System) Obs() *obs.Pipeline {
	if p := s.obsPipe.Load(); p != nil {
		return p
	}
	return obs.Discard()
}

// RegisterMetrics exports the system's internal counters on reg as
// func-backed instruments: the oracle-cache hit/miss/deepening/inflight/
// eviction counters, resident sizes, and the model generation. These read the same
// sources OracleCacheReport and ModelVersion expose, so the Prometheus view
// and the healthz rollup agree by construction.
func (s *System) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc(MOracleCacheHits, "correlation oracle-cache row hits (lock-free path)",
		func() uint64 { return s.OracleCacheReport().Hits })
	reg.CounterFunc(MOracleCacheMisses, "correlation oracle-cache row misses (row created by a Dijkstra)",
		func() uint64 { return s.OracleCacheReport().Misses })
	reg.CounterFunc(MOracleCacheDeepenings, "cached correlation rows searched deeper (one Dijkstra each)",
		func() uint64 { return s.OracleCacheReport().Deepenings })
	reg.CounterFunc(MOracleCacheInflight, "row requests that waited on another goroutine's in-flight computation",
		func() uint64 { return s.OracleCacheReport().InflightWaits })
	reg.CounterFunc(MOracleCacheEvictions, "slot oracles evicted from the LRU",
		func() uint64 { return s.OracleCacheReport().Evictions })
	reg.GaugeFunc(MOracleCacheOracles, "slot oracles resident in the LRU",
		func() float64 { return float64(s.OracleCacheReport().ResidentOracles) })
	reg.GaugeFunc(MOracleCacheRows, "correlation rows resident across cached oracles",
		func() float64 { return float64(s.OracleCacheReport().ResidentRows) })
	reg.GaugeFunc(MOracleCacheBytes, "resident correlation-row bytes",
		func() float64 { return float64(s.OracleCacheReport().ResidentBytes) })
	reg.GaugeFunc(MModelVersion, "swap generation of the serving model",
		func() float64 { return float64(s.ModelVersion()) })
	reg.CounterFunc(MModelSwaps, "model hot-swaps performed",
		func() uint64 { return s.Swaps() })
}

// spanAttrsOCS builds the trace attributes of one OCS selection.
func spanAttrsOCS(sol *ocs.Solution) []slog.Attr {
	return []slog.Attr{
		slog.Int("selected", len(sol.Roads)),
		slog.Int("cost", sol.Cost),
		slog.Float64("value", sol.Value),
	}
}
