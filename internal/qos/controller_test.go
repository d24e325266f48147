package qos

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

var t0 = time.Date(2026, 8, 7, 8, 0, 0, 0, time.UTC)

func newTestController(t *testing.T, cfg Config, clk obs.Clock) *Controller {
	t.Helper()
	c, err := New(cfg, clk)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{Tenants: []TenantConfig{{Name: "nokey"}}}, nil); err == nil {
		t.Error("tenant without key should fail")
	}
	if _, err := New(Config{Tenants: []TenantConfig{{Key: "k"}, {Key: "k"}}}, nil); err == nil {
		t.Error("duplicate keys should fail")
	}
}

func TestResolve(t *testing.T) {
	clk := obs.NewFakeClock(t0, 0)
	c := newTestController(t, Config{
		Tenants: []TenantConfig{{Key: "secret", Name: "ops", Class: ClassAlerting}},
	}, clk)

	ten, ok := c.Resolve("secret")
	if !ok || ten.Name() != "ops" {
		t.Fatalf("Resolve(secret) = %v, %v", ten, ok)
	}
	// Unknown and absent keys fall back to the anonymous tenant.
	for _, key := range []string{"", "wrong"} {
		ten, ok = c.Resolve(key)
		if !ok || ten.Name() != "anon" || ten.DefaultClass() != ClassBatch {
			t.Fatalf("Resolve(%q) = %v, %v; want anon/batch", key, ten, ok)
		}
	}

	strict := newTestController(t, Config{
		Tenants:          []TenantConfig{{Key: "secret", Name: "ops"}},
		DisableAnonymous: true,
	}, clk)
	if _, ok := strict.Resolve("wrong"); ok {
		t.Error("DisableAnonymous should reject unknown keys")
	}
	if _, ok := strict.Resolve("secret"); !ok {
		t.Error("known key rejected")
	}
}

func TestAdmitClassClamp(t *testing.T) {
	clk := obs.NewFakeClock(t0, 0)
	c := newTestController(t, Config{
		Tenants: []TenantConfig{{Key: "k", Name: "maps", Class: ClassBatch, MaxClass: ClassInteractive}},
	}, clk)
	ten, _ := c.Resolve("k")
	if d := c.Admit(ten, ClassAlerting, 1); d.Class != ClassInteractive {
		t.Fatalf("alerting request on an interactive-capped tenant ran as %s", d.Class)
	}
	if d := c.Admit(ten, ClassBatch, 1); d.Class != ClassBatch {
		t.Fatalf("clamp raised a class: %s", d.Class)
	}
}

func TestAdmitRateLimit(t *testing.T) {
	clk := obs.NewFakeClock(t0, 0)
	c := newTestController(t, Config{
		Tenants: []TenantConfig{{Key: "k", Name: "dash", Class: ClassInteractive, RatePerSec: 10, Burst: 2}},
	}, clk)
	ten, _ := c.Resolve("k")

	for i := 0; i < 2; i++ {
		if d := c.Admit(ten, ClassInteractive, 1); !d.Admit || d.Tier != TierFull {
			t.Fatalf("admit %d: %+v", i, d)
		}
	}
	d := c.Admit(ten, ClassInteractive, 1)
	if d.Admit || d.Reason != "rate_limit" {
		t.Fatalf("over-rate request: %+v", d)
	}
	if d.RetryAfter != 100*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 100ms", d.RetryAfter)
	}
	clk.Advance(d.RetryAfter)
	if d := c.Admit(ten, ClassInteractive, 1); !d.Admit {
		t.Fatalf("request after Retry-After refused: %+v", d)
	}

	r := c.Report()
	var dash TenantReport
	for _, tr := range r.Tenants {
		if tr.Name == "dash" {
			dash = tr
		}
	}
	if dash.Admitted["interactive"] != 3 || dash.Shed["interactive"] != 1 {
		t.Fatalf("report counters: %+v", dash)
	}
}

// TestAdmitAtomicBatchCharge pins the all-or-nothing semantics the batch
// endpoint relies on: an n-entry request that doesn't fit consumes nothing,
// so the batch is shed atomically, never half-admitted.
func TestAdmitAtomicBatchCharge(t *testing.T) {
	clk := obs.NewFakeClock(t0, 0)
	c := newTestController(t, Config{
		Tenants: []TenantConfig{{Key: "k", Name: "bulk", RatePerSec: 10, Burst: 4}},
	}, clk)
	ten, _ := c.Resolve("k")

	if d := c.Admit(ten, ClassBatch, 6); d.Admit {
		t.Fatalf("6-token batch on a 4-token bucket admitted")
	}
	// The refused batch must not have nibbled the bucket.
	if d := c.Admit(ten, ClassBatch, 4); !d.Admit {
		t.Fatalf("full-burst batch refused after an atomic rejection: %+v", d)
	}
}

func TestProbeBudgetQuota(t *testing.T) {
	clk := obs.NewFakeClock(t0, 0)
	c := newTestController(t, Config{
		Tenants: []TenantConfig{{Key: "k", Name: "ops", ProbeQuota: 60}}, // refills 1 unit/s
	}, clk)
	ten, _ := c.Resolve("k")

	if ok, _ := c.ConsumeProbeBudget(ten, 60); !ok {
		t.Fatal("full quota refused")
	}
	ok, retry := c.ConsumeProbeBudget(ten, 5)
	if ok {
		t.Fatal("exhausted quota admitted")
	}
	if retry != 5*time.Second {
		t.Fatalf("quota retry = %v, want 5s", retry)
	}
	clk.Advance(5 * time.Second)
	if ok, _ := c.ConsumeProbeBudget(ten, 5); !ok {
		t.Fatal("quota not refilled after the hinted wait")
	}

	// Tenants without a quota are unlimited.
	anon, _ := c.Resolve("")
	if ok, _ := c.ConsumeProbeBudget(anon, 1e6); !ok {
		t.Fatal("quota-less tenant refused")
	}

	r := c.Report()
	for _, tr := range r.Tenants {
		switch tr.Name {
		case "ops":
			if tr.QuotaRejected != 1 {
				t.Errorf("ops quota_rejected = %d", tr.QuotaRejected)
			}
			if tr.QuotaRemaining < 0 {
				t.Errorf("ops quota_remaining = %v", tr.QuotaRemaining)
			}
		case "anon":
			if tr.QuotaRemaining != -1 {
				t.Errorf("anon quota_remaining = %v, want -1 (unlimited)", tr.QuotaRemaining)
			}
		}
	}
}

func TestProbeBudgetRefund(t *testing.T) {
	clk := obs.NewFakeClock(t0, 0)
	c := newTestController(t, Config{
		Tenants: []TenantConfig{{Key: "k", Name: "ops", ProbeQuota: 60}},
	}, clk)
	ten, _ := c.Resolve("k")

	// A charge whose select then fails must be refundable in full.
	if ok, _ := c.ConsumeProbeBudget(ten, 60); !ok {
		t.Fatal("full quota refused")
	}
	c.RefundProbeBudget(ten, 60)
	if ok, _ := c.ConsumeProbeBudget(ten, 60); !ok {
		t.Fatal("refunded quota not spendable again")
	}

	// A refund can never mint budget past the quota's capacity.
	c.RefundProbeBudget(ten, 1e6)
	if ok, _ := c.ConsumeProbeBudget(ten, 61); ok {
		t.Fatal("over-refund minted budget beyond the quota capacity")
	}

	// Quota-less tenants and nil tenants are no-ops.
	anon, _ := c.Resolve("")
	c.RefundProbeBudget(anon, 10)
	c.RefundProbeBudget(nil, 10)
}

func TestPressureSignals(t *testing.T) {
	clk := obs.NewFakeClock(t0, 0)
	c := newTestController(t, Config{
		MaxInFlight:   100,
		LatencyTarget: 100 * time.Millisecond, // saturates at 400ms
	}, clk)

	if p := c.Pressure(); p != 0 {
		t.Fatalf("pressure with no signals = %v", p)
	}
	var inFlight, p95 float64
	c.SetSignals(func() float64 { return inFlight }, func() float64 { return p95 })

	inFlight = 50
	if p := c.Pressure(); p != 0.5 {
		t.Fatalf("in-flight pressure = %v, want 0.5", p)
	}
	// Latency below target contributes nothing.
	p95 = 0.1
	if p := c.Pressure(); p != 0.5 {
		t.Fatalf("at-target latency moved pressure: %v", p)
	}
	// 250ms is halfway between the 100ms target and 400ms saturation.
	p95 = 0.25
	if p := c.Pressure(); p != 0.5 {
		t.Fatalf("latency pressure = %v, want 0.5", p)
	}
	p95 = 0.4
	if p := c.Pressure(); p != 1.0 {
		t.Fatalf("saturated latency pressure = %v, want 1", p)
	}
	// Clamped at 1 even past saturation.
	inFlight, p95 = 500, 10
	if p := c.Pressure(); p != 1.0 {
		t.Fatalf("pressure not clamped: %v", p)
	}
}

func TestRegisterMetrics(t *testing.T) {
	clk := obs.NewFakeClock(t0, 0)
	c := newTestController(t, Config{
		Tenants: []TenantConfig{{Key: "k", Name: "ops", Class: ClassAlerting, ProbeQuota: 10}},
	}, clk)
	ten, _ := c.Resolve("k")
	c.Admit(ten, ClassAlerting, 1)
	c.Admit(ten, ClassAlerting, 1)
	c.ConsumeProbeBudget(ten, 4)

	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)

	snap := reg.Snapshot()
	if got := snap[obs.MQoSAdmitted+`{tenant="ops",class="alerting"}`]; got != 2 {
		t.Errorf("admitted metric = %v, want 2", got)
	}
	if got := snap[obs.MQoSTier+`{tenant="ops",tier="full"}`]; got != 2 {
		t.Errorf("tier metric = %v, want 2", got)
	}
	if got := snap[obs.MQoSQuotaRemaining+`{tenant="ops"}`]; got != 6 {
		t.Errorf("quota remaining = %v, want 6", got)
	}
	if _, ok := snap[obs.MQoSPressure]; !ok {
		t.Error("pressure gauge missing")
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, want := range []string{obs.MQoSAdmitted, obs.MQoSShed, obs.MQoSTier, obs.MQoSPressure} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

func TestObserveCountsServedTier(t *testing.T) {
	clk := obs.NewFakeClock(t0, 0)
	c := newTestController(t, Config{}, clk)
	ten, _ := c.Resolve("")
	c.Observe(ten, TierCached, TierPrior)
	r := c.Report()
	if r.Tenants[0].Tiers["prior"] != 1 {
		t.Fatalf("served tier not recorded: %+v", r.Tenants[0].Tiers)
	}
	c.Observe(nil, TierCached, TierPrior) // nil-safe
}
