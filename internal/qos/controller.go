package qos

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Config assembles the overload-control subsystem.
type Config struct {
	// Tenants declares the API keys. Keys must be unique.
	Tenants []TenantConfig
	// DisableAnonymous rejects requests that present no (or an unknown) API
	// key with 401 instead of admitting them as the anonymous tenant (batch
	// class, 25 rps, burst 50, no probe quota).
	DisableAnonymous bool

	// MaxInFlight is the concurrent-request count treated as saturation
	// (in-flight pressure 1.0). Default 64.
	MaxInFlight int
	// LatencyTarget is the request-latency quantile the service aims for;
	// pressure from latency is 0 at or below the target and reaches 1.0 at
	// latencySaturation times the target. Default 250ms.
	LatencyTarget time.Duration
}

const (
	defaultMaxInFlight   = 64
	defaultLatencyTarget = 250 * time.Millisecond
	// latencySaturation is the latency, as a multiple of LatencyTarget, at
	// which latency pressure reaches 1.0.
	latencySaturation = 4
	// quotaWindow is the refill horizon of the per-tenant probe-budget
	// quota: a tenant may spend ProbeQuota budget units per window
	// (token-bucket smoothed, not a hard calendar window).
	quotaWindow = time.Minute
)

// AnonymousKey is the reserved lookup key of the anonymous tenant.
const AnonymousKey = ""

// Tenant is one admitted principal: its identity, buckets and counters.
type Tenant struct {
	cfg      TenantConfig
	requests *bucket
	quota    *bucket

	admitted      [numClasses]atomic.Uint64
	shed          [numClasses]atomic.Uint64
	tiers         [numTiers]atomic.Uint64
	quotaRejected atomic.Uint64
}

// Name returns the tenant's metric label.
func (t *Tenant) Name() string { return t.cfg.Name }

// DefaultClass returns the class requests run at when they don't ask for one.
func (t *Tenant) DefaultClass() Class { return t.cfg.Class }

// clampClass lowers a requested class to the tenant's ceiling.
func (t *Tenant) clampClass(c Class) Class {
	if c > t.cfg.MaxClass {
		return t.cfg.MaxClass
	}
	return c
}

// Decision is the admission verdict for one request.
type Decision struct {
	Tenant *Tenant
	// Class is the effective priority class (requested, clamped to the
	// tenant's ceiling).
	Class Class
	// Admit: serve the request at Tier. !Admit: reject with 429 (Reason
	// says why) after RetryAfter.
	Admit bool
	Tier  Tier
	// Reason is "" when admitted, else "rate_limit" (token bucket) or
	// "overload" (pressure shed).
	Reason string
	// Pressure is the load level the decision was made at (diagnostics).
	Pressure   float64
	RetryAfter time.Duration
}

// Controller is the admission controller. Safe for concurrent use; decisions
// are a few atomic reads plus one token-bucket take.
type Controller struct {
	cfg    Config
	clock  obs.Clock
	ladder Ladder

	byKey  map[string]*Tenant
	sorted []*Tenant // stable name order for reports/metrics

	inFlight atomic.Pointer[func() float64]
	latency  atomic.Pointer[func() float64]
}

// New validates the configuration and builds a controller on clock (nil →
// system clock).
func New(cfg Config, clock obs.Clock) (*Controller, error) {
	if clock == nil {
		clock = obs.SystemClock()
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = defaultMaxInFlight
	}
	if cfg.LatencyTarget <= 0 {
		cfg.LatencyTarget = defaultLatencyTarget
	}
	c := &Controller{cfg: cfg, clock: clock, ladder: DefaultLadder(), byKey: make(map[string]*Tenant)}
	add := func(tc TenantConfig, key string) error {
		if _, dup := c.byKey[key]; dup {
			return fmt.Errorf("qos: duplicate tenant key %q", key)
		}
		t := &Tenant{
			cfg:      tc,
			requests: newBucket(tc.RatePerSec, tc.Burst),
		}
		if tc.ProbeQuota > 0 {
			t.quota = newBucket(float64(tc.ProbeQuota)/quotaWindow.Seconds(), float64(tc.ProbeQuota))
		}
		c.byKey[key] = t
		c.sorted = append(c.sorted, t)
		return nil
	}
	for _, tc := range cfg.Tenants {
		if tc.Key == "" {
			return nil, fmt.Errorf("qos: tenant %q without a key", tc.Name)
		}
		if tc.Name == "" {
			tc.Name = tc.Key
		}
		if tc.MaxClass < tc.Class {
			tc.MaxClass = tc.Class
		}
		if err := add(tc, tc.Key); err != nil {
			return nil, err
		}
	}
	if !cfg.DisableAnonymous {
		anon := TenantConfig{Name: "anon", Class: ClassBatch, MaxClass: ClassBatch,
			RatePerSec: 25, Burst: 50}
		if err := add(anon, AnonymousKey); err != nil {
			return nil, err
		}
	}
	sort.Slice(c.sorted, func(i, j int) bool { return c.sorted[i].cfg.Name < c.sorted[j].cfg.Name })
	return c, nil
}

// SetSignals wires the pressure inputs: the current in-flight request count
// and the recent request-latency quantile in seconds (the server passes the
// obs in-flight gauge and the p95 of the HTTP latency histogram). Either may
// be nil (that signal then contributes zero pressure).
func (c *Controller) SetSignals(inFlight, latencyP95 func() float64) {
	if inFlight != nil {
		c.inFlight.Store(&inFlight)
	}
	if latencyP95 != nil {
		c.latency.Store(&latencyP95)
	}
}

// Pressure reads the load level in [0,1]: the max of the in-flight fraction
// (in-flight / MaxInFlight) and the latency overshoot (0 at the target
// quantile, 1 at latencySaturation times the target). Reading is lock-free
// and on demand, so the ladder reacts the moment the signals move — and
// recovers the moment they fall.
func (c *Controller) Pressure() float64 {
	var p float64
	if fp := c.inFlight.Load(); fp != nil {
		p = (*fp)() / float64(c.cfg.MaxInFlight)
	}
	if fp := c.latency.Load(); fp != nil {
		target := c.cfg.LatencyTarget.Seconds()
		sat := latencySaturation * target
		if lat := (*fp)(); lat > target {
			lp := (lat - target) / (sat - target)
			if lp > p {
				p = lp
			}
		}
	}
	return math.Min(math.Max(p, 0), 1)
}

// Resolve looks a tenant up by API key. Absent or unknown keys resolve to
// the anonymous tenant unless DisableAnonymous is set, in which case ok is
// false and the server answers 401.
func (c *Controller) Resolve(key string) (t *Tenant, ok bool) {
	if t, ok := c.byKey[key]; ok && key != AnonymousKey {
		return t, true
	}
	t, ok = c.byKey[AnonymousKey]
	return t, ok
}

// Admit decides one request: charge `tokens` from the tenant's rate bucket
// (all-or-nothing — a multi-entry batch is shed atomically, never
// half-admitted), then place the request on the QoS ladder at the current
// pressure. requested is clamped to the tenant's class ceiling.
func (c *Controller) Admit(t *Tenant, requested Class, tokens float64) Decision {
	class := t.clampClass(requested)
	d := Decision{Tenant: t, Class: class, Pressure: c.Pressure()}
	if tokens < 1 {
		tokens = 1
	}
	if ok, retry := t.requests.take(c.clock.Now(), tokens); !ok {
		d.Reason = "rate_limit"
		d.RetryAfter = retry
		t.shed[class].Add(1)
		return d
	}
	tier, shed := c.ladder.tierAt(class, d.Pressure)
	if shed {
		d.Reason = "overload"
		// Overload passes quickly relative to a quota window: hint a short
		// class-ordered backoff (lower classes wait longer) instead of a
		// bucket-derived time that does not apply here.
		d.RetryAfter = time.Duration(numClasses-int(class)) * time.Second
		t.shed[class].Add(1)
		return d
	}
	d.Admit = true
	d.Tier = tier
	t.admitted[class].Add(1)
	t.tiers[tier].Add(1)
	return d
}

// Observe records the tier a request was actually served at when the
// execution path had to degrade further than the admission decision (e.g.
// TierCached with an empty warm cache falls through to TierPrior). The
// original decision's tier count is corrected so the tier counters reflect
// served reality.
func (c *Controller) Observe(t *Tenant, decided, served Tier) {
	if t == nil || decided == served {
		return
	}
	// Counters are monotone: rather than decrementing the decided tier we
	// count the served tier too and expose the decided/served distinction via
	// the response's quality label; dashboards sum tiers per tenant.
	t.tiers[served].Add(1)
}

// ConsumeProbeBudget charges `units` of crowdsourcing budget against the
// tenant's probe quota — all or nothing. ok is false when the quota is
// exhausted; retry hints when the bucket will have refilled enough.
func (c *Controller) ConsumeProbeBudget(t *Tenant, units int) (ok bool, retry time.Duration) {
	if t.quota == nil || units <= 0 {
		return true, 0
	}
	ok, retry = t.quota.take(c.clock.Now(), float64(units))
	if !ok {
		t.quotaRejected.Add(1)
	}
	return ok, retry
}

// RefundProbeBudget returns units charged by ConsumeProbeBudget when the
// select failed before any probes were bought (bad parameters, oracle error):
// the tenant should not pay quota for work that never happened. Capped at the
// quota's capacity, so over-refunding cannot mint budget.
func (c *Controller) RefundProbeBudget(t *Tenant, units int) {
	if t == nil || t.quota == nil || units <= 0 {
		return
	}
	t.quota.put(float64(units))
}

// ---------------------------------------------------------------------------
// Reporting: one source of numbers for /v1/metrics and /v1/healthz
// ---------------------------------------------------------------------------

// TenantReport is the per-tenant counter block of Report.
type TenantReport struct {
	Name         string            `json:"name"`
	DefaultClass string            `json:"default_class"`
	Admitted     map[string]uint64 `json:"admitted"` // by class
	Shed         map[string]uint64 `json:"shed"`     // by class
	Tiers        map[string]uint64 `json:"tiers"`    // by served tier
	// QuotaRejected counts select requests refused because the probe-budget
	// quota was exhausted.
	QuotaRejected uint64 `json:"quota_rejected"`
	// QuotaRemaining is the probe-budget units currently available; -1 when
	// the tenant has no quota.
	QuotaRemaining float64 `json:"quota_remaining"`
}

// Report is the healthz rollup. Every number is read from the same atomics
// the /v1/metrics CounterFunc/GaugeFunc bridges read, so the two surfaces
// cannot diverge.
type Report struct {
	Pressure    float64        `json:"pressure"`
	MaxInFlight int            `json:"max_in_flight"`
	Tenants     []TenantReport `json:"tenants"`
}

// Report snapshots the controller state.
func (c *Controller) Report() *Report {
	out := &Report{Pressure: c.Pressure(), MaxInFlight: c.cfg.MaxInFlight}
	now := c.clock.Now()
	for _, t := range c.sorted {
		tr := TenantReport{
			Name:         t.cfg.Name,
			DefaultClass: t.cfg.Class.String(),
			Admitted:     make(map[string]uint64, numClasses),
			Shed:         make(map[string]uint64, numClasses),
			Tiers:        make(map[string]uint64, numTiers),
			QuotaRemaining: func() float64 {
				if t.quota == nil {
					return -1
				}
				return t.quota.remaining(now)
			}(),
			QuotaRejected: t.quotaRejected.Load(),
		}
		for _, cl := range Classes() {
			tr.Admitted[cl.String()] = t.admitted[cl].Load()
			tr.Shed[cl.String()] = t.shed[cl].Load()
		}
		for _, tier := range Tiers() {
			tr.Tiers[tier.String()] = t.tiers[tier].Load()
		}
		out.Tenants = append(out.Tenants, tr)
	}
	return out
}

// RegisterMetrics exposes the controller on a registry through the
// CounterFunc/GaugeFunc bridges: per-tenant admit/shed counters by class,
// served-tier counters, quota rejections and remaining quota, plus the
// pressure gauge — all reading the very atomics Report() reads.
func (c *Controller) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc(obs.MQoSPressure, "current overload pressure in [0,1]", c.Pressure)
	for _, t := range c.sorted {
		t := t
		for _, cl := range Classes() {
			cl := cl
			reg.CounterFunc(
				fmt.Sprintf("%s{tenant=%q,class=%q}", obs.MQoSAdmitted, t.cfg.Name, cl),
				"requests admitted by the QoS controller",
				func() uint64 { return t.admitted[cl].Load() })
			reg.CounterFunc(
				fmt.Sprintf("%s{tenant=%q,class=%q}", obs.MQoSShed, t.cfg.Name, cl),
				"requests shed (rate limit or overload)",
				func() uint64 { return t.shed[cl].Load() })
		}
		for _, tier := range Tiers() {
			tier := tier
			reg.CounterFunc(
				fmt.Sprintf("%s{tenant=%q,tier=%q}", obs.MQoSTier, t.cfg.Name, tier),
				"requests served per QoS ladder tier",
				func() uint64 { return t.tiers[tier].Load() })
		}
		reg.CounterFunc(
			fmt.Sprintf("%s{tenant=%q}", obs.MQoSQuotaRejected, t.cfg.Name),
			"select requests refused on an exhausted probe-budget quota",
			func() uint64 { return t.quotaRejected.Load() })
		if t.quota != nil {
			reg.GaugeFunc(
				fmt.Sprintf("%s{tenant=%q}", obs.MQoSQuotaRemaining, t.cfg.Name),
				"probe-budget units currently available",
				func() float64 { return t.quota.remaining(c.clock.Now()) })
		}
	}
}
