package qos

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestParseClass(t *testing.T) {
	cases := map[string]Class{
		"batch": ClassBatch, "Interactive": ClassInteractive,
		" alerting ": ClassAlerting, "ALERTING": ClassAlerting,
	}
	for in, want := range cases {
		got, err := ParseClass(in)
		if err != nil || got != want {
			t.Errorf("ParseClass(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseClass("vip"); err == nil {
		t.Error("ParseClass(vip) should fail")
	}
}

func TestClassTierStrings(t *testing.T) {
	for _, c := range Classes() {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("class %d round-trip: %v, %v", c, got, err)
		}
	}
	wantTiers := []string{"full", "batched", "cached", "prior"}
	for i, tier := range Tiers() {
		if tier.String() != wantTiers[i] {
			t.Errorf("tier %d = %q, want %q", i, tier.String(), wantTiers[i])
		}
		if tier.Degraded() != (i > 0) {
			t.Errorf("tier %s Degraded() = %v", tier, tier.Degraded())
		}
	}
}

func TestParseTenant(t *testing.T) {
	cfg, err := ParseTenant("key=abc123,name=ops,class=alerting,rps=50,burst=100,quota=500")
	if err != nil {
		t.Fatalf("ParseTenant: %v", err)
	}
	if cfg.Key != "abc123" || cfg.Name != "ops" || cfg.Class != ClassAlerting ||
		cfg.MaxClass != ClassAlerting || cfg.RatePerSec != 50 || cfg.Burst != 100 || cfg.ProbeQuota != 500 {
		t.Fatalf("ParseTenant = %+v", cfg)
	}

	// Defaults: name ← key, class interactive, maxclass ← class.
	cfg, err = ParseTenant("key=k1")
	if err != nil {
		t.Fatalf("minimal spec: %v", err)
	}
	if cfg.Name != "k1" || cfg.Class != ClassInteractive || cfg.MaxClass != ClassInteractive {
		t.Fatalf("minimal defaults = %+v", cfg)
	}

	// maxclass may exceed the default class…
	cfg, err = ParseTenant("key=k2,class=batch,maxclass=alerting")
	if err != nil || cfg.MaxClass != ClassAlerting {
		t.Fatalf("maxclass spec = %+v, %v", cfg, err)
	}
	// …but not undercut it.
	if _, err := ParseTenant("key=k3,class=alerting,maxclass=batch"); err == nil {
		t.Error("maxclass below class should fail")
	}

	for _, bad := range []string{
		"name=nokey",           // missing key
		"key=k,color=blue",     // unknown field
		"key=k,rps=fast",       // bad number
		"key=k,class=platinum", // bad class
		"key=k,quota=1.5",      // quota must be int
		"key=k,rps",            // not key=value
	} {
		if _, err := ParseTenant(bad); err == nil {
			t.Errorf("ParseTenant(%q) should fail", bad)
		}
	}
}

// validate checks the per-class monotonicity of a ladder: steps ascend and
// shedding never undercuts a step that is still supposed to serve, and a
// higher class never sheds at lower pressure than a lower class (the
// "alerting before batch" inversion would defeat the whole point).
func (l Ladder) validate() error {
	for _, c := range Classes() {
		steps := l.StepDown[c]
		prev := 0.0
		for i, s := range steps {
			if s < prev {
				return fmt.Errorf("qos: ladder class %s: step %d threshold %.2f below previous %.2f", c, i, s, prev)
			}
			prev = s
		}
		if l.Shed[c] < prev && l.Shed[c] < neverShed {
			return fmt.Errorf("qos: ladder class %s: shed threshold %.2f below last step %.2f", c, l.Shed[c], prev)
		}
	}
	for i := 0; i+1 < numClasses; i++ {
		lo, hi := Class(i), Class(i+1)
		if l.Shed[hi] < l.Shed[lo] {
			return fmt.Errorf("qos: ladder inverts priority: %s sheds at %.2f before %s at %.2f",
				hi, l.Shed[hi], lo, l.Shed[lo])
		}
	}
	return nil
}

func TestDefaultLadderValid(t *testing.T) {
	if err := DefaultLadder().validate(); err != nil {
		t.Fatalf("default ladder invalid: %v", err)
	}
}

func TestLadderTierAt(t *testing.T) {
	l := DefaultLadder()
	cases := []struct {
		class    Class
		pressure float64
		tier     Tier
		shed     bool
	}{
		{ClassBatch, 0.0, TierFull, false},
		{ClassBatch, 0.49, TierFull, false},
		{ClassBatch, 0.50, TierBatched, false},
		{ClassBatch, 0.70, TierCached, false},
		{ClassBatch, 0.85, TierPrior, false},
		{ClassBatch, 0.92, TierPrior, true},
		{ClassBatch, 1.0, TierPrior, true},
		{ClassInteractive, 0.69, TierFull, false},
		{ClassInteractive, 0.70, TierBatched, false},
		{ClassInteractive, 0.85, TierCached, false},
		{ClassInteractive, 0.92, TierPrior, false},
		{ClassInteractive, 0.97, TierPrior, true},
		{ClassAlerting, 0.84, TierFull, false},
		{ClassAlerting, 0.85, TierBatched, false},
		{ClassAlerting, 0.97, TierCached, false},
		{ClassAlerting, 1.0, TierCached, false}, // never prior, never shed
	}
	for _, c := range cases {
		tier, shed := l.tierAt(c.class, c.pressure)
		if tier != c.tier || shed != c.shed {
			t.Errorf("tierAt(%s, %.2f) = %s, %v; want %s, %v",
				c.class, c.pressure, tier, shed, c.tier, c.shed)
		}
	}
}

// TestLadderClassOrder pins the structural guarantee behind the acceptance
// criterion "zero alerting-class requests shed before batch-class": at every
// pressure level, a higher class is served at least as well as a lower one.
func TestLadderClassOrder(t *testing.T) {
	l := DefaultLadder()
	for p := 0.0; p <= 1.0; p += 0.01 {
		var tiers [numClasses]Tier
		var sheds [numClasses]bool
		for _, c := range Classes() {
			tiers[c], sheds[c] = l.tierAt(c, p)
		}
		for c := 0; c+1 < numClasses; c++ {
			if sheds[c+1] && !sheds[c] {
				t.Fatalf("p=%.2f: class %s shed while %s served", p, Class(c+1), Class(c))
			}
			if !sheds[c] && !sheds[c+1] && tiers[c+1] > tiers[c] {
				t.Fatalf("p=%.2f: class %s at worse tier %s than %s at %s",
					p, Class(c+1), tiers[c+1], Class(c), tiers[c])
			}
		}
	}
}

func TestLadderValidateRejects(t *testing.T) {
	// Descending steps.
	l := DefaultLadder()
	l.StepDown[ClassBatch] = [3]float64{0.70, 0.50, 0.85}
	if err := l.validate(); err == nil || !strings.Contains(err.Error(), "below previous") {
		t.Errorf("descending steps: err = %v", err)
	}
	// Shed below last step.
	l = DefaultLadder()
	l.Shed[ClassBatch] = 0.10
	if err := l.validate(); err == nil || !strings.Contains(err.Error(), "shed threshold") {
		t.Errorf("shed below steps: err = %v", err)
	}
	// Priority inversion: interactive sheds before batch.
	l = DefaultLadder()
	l.Shed[ClassBatch] = neverShed
	if err := l.validate(); err == nil || !strings.Contains(err.Error(), "inverts priority") {
		t.Errorf("priority inversion: err = %v", err)
	}
}

func TestBucketTake(t *testing.T) {
	t0 := time.Date(2026, 8, 7, 8, 0, 0, 0, time.UTC)
	b := newBucket(10, 5) // 10 tokens/s, burst 5

	for i := 0; i < 5; i++ {
		if ok, _ := b.take(t0, 1); !ok {
			t.Fatalf("take %d on a full bucket refused", i)
		}
	}
	ok, retry := b.take(t0, 1)
	if ok {
		t.Fatal("take on an empty bucket admitted")
	}
	if want := 100 * time.Millisecond; retry != want {
		t.Fatalf("retry = %v, want %v", retry, want)
	}
	// After the hinted wait the token is there.
	if ok, _ := b.take(t0.Add(retry), 1); !ok {
		t.Fatal("take after Retry-After refused")
	}

	// All-or-nothing: a 3-token take on a 2-token bucket consumes nothing.
	b = newBucket(10, 5)
	b.take(t0, 3) // leaves 2
	if ok, _ := b.take(t0, 3); ok {
		t.Fatal("oversized take admitted")
	}
	if ok, _ := b.take(t0, 2); !ok {
		t.Fatal("tokens were consumed by the refused take")
	}

	// n > burst can never fit; the hint is the full-bucket horizon.
	b = newBucket(10, 5)
	b.take(t0, 5)
	if _, retry := b.take(t0, 50); retry != 500*time.Millisecond {
		t.Fatalf("oversize retry = %v, want 500ms", retry)
	}

	// rate ≤ 0 disables the bucket.
	b = newBucket(0, 0)
	if ok, _ := b.take(t0, 1e9); !ok {
		t.Fatal("unlimited bucket refused")
	}
}

func TestBucketBurstDefault(t *testing.T) {
	b := newBucket(10, 0)
	if b.burst != 10 {
		t.Fatalf("burst default = %v, want rate", b.burst)
	}
	b = newBucket(0.5, 0)
	if b.burst != 1 {
		t.Fatalf("burst floor = %v, want 1", b.burst)
	}
}
