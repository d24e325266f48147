// Package qos is the overload-control subsystem: API-key tenancy,
// per-tenant token-bucket rate limits and probe-budget quotas, priority
// classes, and an admission controller that survives rush-hour surges by
// stepping requests down a graceful-degradation ladder instead of failing
// them.
//
// The paper's premise is answering speed queries in realtime from sparse
// crowdsourced probes; at metropolitan scale "realtime" has to survive
// millions of users arriving at once. The server already owns every
// machinery rung of a degradation ladder — the full OCS+GSP pipeline, the
// Batcher's coalesced/warm-started passes, the per-slot warm LRU of previous
// fields, and the periodicity-prior fallback from the fault-tolerant
// pipeline — but nothing decided *who* gets which rung when the load
// exceeds capacity. This package is that decision:
//
//	pressure   alerting      interactive   batch
//	  < 0.50   full          full          full
//	  ≥ 0.50   full          full          batched
//	  ≥ 0.70   full          batched       cached
//	  ≥ 0.85   batched       cached        prior
//	  ≥ 0.92   batched       prior         SHED
//	  ≥ 0.97   cached        SHED          SHED
//	  (never)  prior/shed ladder ends — alerting is never pressure-shed
//
// (the default ladder; every threshold is configurable). Pressure is read
// from the observability layer — in-flight requests against a capacity bound
// and the recent latency quantile against a target — so the dashboards of
// PR 4 become an active control loop. A request that is shed gets an honest
// 429 with Retry-After; a request that is degraded gets an answer labeled
// with its service tier and an *inflated variance* (Rodrigues & Pereira's
// point: a cheaper answer must carry honestly wider uncertainty, not just a
// boolean flag).
//
// Determinism: the controller takes an obs.Clock, so token buckets, quota
// windows and the whole overload drill replay exactly under an
// obs.FakeClock.
package qos

import (
	"fmt"
	"strconv"
	"strings"
)

// Class is the priority class of a request. Higher is more important;
// shedding strictly respects the order — under the default ladder a batch
// request is always shed before an interactive one, and an alerting request
// is never shed by pressure at all (only its tenant's token bucket can
// reject it).
type Class int

const (
	// ClassBatch is bulk/offline traffic (dashboards back-filling tiles,
	// analytics sweeps): first to degrade, first to shed.
	ClassBatch Class = iota
	// ClassInteractive is a human waiting on the answer (navigation apps,
	// map views): degrades under pressure, sheds only near saturation.
	ClassInteractive
	// ClassAlerting is incident detection and operator tooling: the last to
	// degrade and never pressure-shed — an accident alert that arrives late
	// is a failed product.
	ClassAlerting

	numClasses = 3
)

// String returns the class name as used in headers, flags and metrics.
func (c Class) String() string {
	switch c {
	case ClassBatch:
		return "batch"
	case ClassInteractive:
		return "interactive"
	case ClassAlerting:
		return "alerting"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ParseClass parses a class name ("alerting" | "interactive" | "batch",
// case-insensitive).
func ParseClass(s string) (Class, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "batch":
		return ClassBatch, nil
	case "interactive":
		return ClassInteractive, nil
	case "alerting":
		return ClassAlerting, nil
	default:
		return 0, fmt.Errorf("qos: unknown priority class %q (want alerting|interactive|batch)", s)
	}
}

// Classes lists every priority class, lowest priority first.
func Classes() []Class {
	return []Class{ClassBatch, ClassInteractive, ClassAlerting}
}

// Tier is one rung of the graceful-degradation ladder, best first. The rungs
// reuse machinery previous PRs built as fault responses or optimizations and
// repurpose it as deliberate service levels.
type Tier int

const (
	// TierFull is the undegraded pipeline: a dedicated propagation over the
	// request's exact observation set (plus the Batcher's ε-equivalent
	// amortizations, which do not change the answer).
	TierFull Tier = iota
	// TierBatched forces same-slot requests to share one in-flight
	// propagation even when their observation sets differ slightly — the
	// leader's observations answer everyone, so a follower's variance is
	// widened by the measured gap between its own observations and the
	// shared field.
	TierBatched
	// TierCached serves the slot's previous estimate straight from the warm
	// LRU with no propagation at all, its variance aged through each road's
	// AR(1) transition and widened by the same evidence gap against the
	// slot's current observations; when the slot has no cached field it
	// falls through to TierPrior.
	TierCached
	// TierPrior answers from the periodicity prior μ alone — structurally
	// valid, zero realtime signal — with the prior spread Σ as its SD and
	// no further inflation (VarianceInflation 1.0): Σ already prices the
	// missing realtime signal. The last rung before shedding.
	TierPrior

	numTiers = 4
)

// String returns the tier label used in responses ("quality") and metrics.
func (t Tier) String() string {
	switch t {
	case TierFull:
		return "full"
	case TierBatched:
		return "batched"
	case TierCached:
		return "cached"
	case TierPrior:
		return "prior"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// Degraded reports whether the tier serves anything less than the full
// pipeline answer.
func (t Tier) Degraded() bool { return t > TierFull }

// Tiers lists the ladder rungs, best first.
func Tiers() []Tier {
	return []Tier{TierFull, TierBatched, TierCached, TierPrior}
}

// TenantConfig declares one API tenant.
type TenantConfig struct {
	// Key is the API key clients present (Authorization: Bearer <key> or
	// X-API-Key). Required and unique.
	Key string
	// Name labels the tenant in metrics and healthz (defaults to the key).
	Name string
	// Class is the tenant's default priority class; a request may lower it
	// per call (X-Priority) but never raise it above MaxClass.
	Class Class
	// MaxClass caps the class a request may claim (default: Class — a batch
	// tenant cannot promote itself to alerting by setting a header).
	MaxClass Class
	// RatePerSec / Burst parameterize the request token bucket. RatePerSec
	// ≤ 0 means unlimited.
	RatePerSec float64
	Burst      float64
	// ProbeQuota bounds the crowdsourcing budget (OCS budget units) the
	// tenant may spend per minute (quotaWindow); ≤ 0 means
	// unlimited. Probes cost real money — rate limits alone don't stop one
	// tenant from draining the campaign budget with a few huge requests.
	ProbeQuota int

	maxClassSet bool
}

// ParseTenant parses a flag-friendly tenant spec:
//
//	key=abc123,name=ops,class=alerting,rps=50,burst=100,quota=500
//
// Unknown fields are an error; key is required; everything else defaults
// (class=interactive, rps unlimited, quota unlimited).
func ParseTenant(spec string) (TenantConfig, error) {
	cfg := TenantConfig{Class: ClassInteractive}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return cfg, fmt.Errorf("qos: tenant field %q is not key=value", part)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch k {
		case "key":
			cfg.Key = v
		case "name":
			cfg.Name = v
		case "class":
			c, err := ParseClass(v)
			if err != nil {
				return cfg, err
			}
			cfg.Class = c
		case "maxclass", "max_class":
			c, err := ParseClass(v)
			if err != nil {
				return cfg, err
			}
			cfg.MaxClass = c
			cfg.maxClassSet = true
		case "rps":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return cfg, fmt.Errorf("qos: tenant rps %q: %v", v, err)
			}
			cfg.RatePerSec = f
		case "burst":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return cfg, fmt.Errorf("qos: tenant burst %q: %v", v, err)
			}
			cfg.Burst = f
		case "quota":
			n, err := strconv.Atoi(v)
			if err != nil {
				return cfg, fmt.Errorf("qos: tenant quota %q: %v", v, err)
			}
			cfg.ProbeQuota = n
		default:
			return cfg, fmt.Errorf("qos: unknown tenant field %q", k)
		}
	}
	if cfg.Key == "" {
		return cfg, fmt.Errorf("qos: tenant spec %q missing key=", spec)
	}
	if cfg.Name == "" {
		cfg.Name = cfg.Key
	}
	if !cfg.maxClassSet {
		cfg.MaxClass = cfg.Class
	}
	if cfg.MaxClass < cfg.Class {
		return cfg, fmt.Errorf("qos: tenant %s: maxclass %s below default class %s",
			cfg.Name, cfg.MaxClass, cfg.Class)
	}
	return cfg, nil
}

// Ladder maps pressure to a service tier per priority class. StepDown[c][k]
// is the pressure at or above which class c drops to tier k+1 (k=0 →
// TierBatched, 1 → TierCached, 2 → TierPrior); Shed[c] is the pressure at or
// above which class c is rejected outright. Thresholds must be ascending per
// class; use Inf (or anything > 1) for "never".
type Ladder struct {
	StepDown [numClasses][numTiers - 1]float64
	Shed     [numClasses]float64
}

// neverShed is an unreachable pressure (pressure is clamped to [0,1]).
const neverShed = 2.0

// DefaultLadder returns the ladder documented in the package comment:
// batch degrades first and sheds first; interactive holds full service to
// 0.70 and sheds only at 0.92; alerting degrades last and is never
// pressure-shed.
func DefaultLadder() Ladder {
	var l Ladder
	l.StepDown[ClassBatch] = [3]float64{0.50, 0.70, 0.85}
	l.Shed[ClassBatch] = 0.92
	l.StepDown[ClassInteractive] = [3]float64{0.70, 0.85, 0.92}
	l.Shed[ClassInteractive] = 0.97
	l.StepDown[ClassAlerting] = [3]float64{0.85, 0.97, neverShed}
	l.Shed[ClassAlerting] = neverShed
	return l
}

// tierAt resolves the ladder for one class at a pressure level. shed is true
// when the class must be rejected.
func (l Ladder) tierAt(c Class, pressure float64) (Tier, bool) {
	if pressure >= l.Shed[c] {
		return TierPrior, true
	}
	tier := TierFull
	for i, threshold := range l.StepDown[c] {
		if pressure >= threshold {
			tier = Tier(i + 1)
		}
	}
	return tier, false
}
