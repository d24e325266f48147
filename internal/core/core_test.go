package core

import (
	"testing"

	"repro/internal/baselines"
	"repro/internal/crowd"
	"repro/internal/network"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

type fixture struct {
	net  *network.Network
	hist *speedgen.History
	sys  *System
}

func newFixture(tb testing.TB, roads, days int, seed int64) *fixture {
	tb.Helper()
	net := network.Synthetic(network.SyntheticOptions{Roads: roads, Seed: seed})
	h, err := speedgen.Generate(net, speedgen.Default(days, seed+1))
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := Train(net, h, DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return &fixture{net: net, hist: h, sys: sys}
}

// evalDay is the held-out day used as "realtime" ground truth.
func (f *fixture) truth(day int, t tslot.Slot) crowd.TruthFunc {
	return func(r int) float64 { return f.hist.At(day, t, r) }
}

func TestTrainValidation(t *testing.T) {
	f := newFixture(t, 20, 4, 1)
	if _, err := Train(nil, f.hist, DefaultConfig()); err == nil {
		t.Error("nil network accepted")
	}
	bad := DefaultConfig()
	bad.Window = -1
	if _, err := Train(f.net, f.hist, bad); err == nil {
		t.Error("negative window accepted")
	}
}

func TestNewFromModel(t *testing.T) {
	f := newFixture(t, 20, 4, 2)
	sys, err := NewFromModel(f.net, f.sys.Model(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sys.Network() != f.net {
		t.Error("network not retained")
	}
	if _, err := NewFromModel(f.net, nil, DefaultConfig()); err == nil {
		t.Error("nil model accepted")
	}
	other := network.Synthetic(network.SyntheticOptions{Roads: 21, Seed: 9})
	if _, err := NewFromModel(other, f.sys.Model(), DefaultConfig()); err == nil {
		t.Error("mismatched model accepted")
	}
}

func TestSelectorString(t *testing.T) {
	names := map[Selector]string{Hybrid: "Hybrid", Ratio: "Ratio", Objective: "OBJ", RandomSel: "Rand"}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if Selector(9).String() == "" {
		t.Error("unknown selector empty name")
	}
}

// TestParseSelector pins the one selector vocabulary the CLI and the HTTP
// routes share: every String name parses back to its selector, and the long
// aliases and "" resolve as documented.
func TestParseSelector(t *testing.T) {
	for s := Hybrid; s <= RouteVar; s++ {
		if got, err := ParseSelector(s.String()); err != nil || got != s {
			t.Errorf("ParseSelector(%q) = %v, %v, want %v", s.String(), got, err, s)
		}
	}
	for name, want := range map[string]Selector{
		"": Hybrid, "Objective": Objective, "Random": RandomSel, "VarianceMin": VarMin,
	} {
		if got, err := ParseSelector(name); err != nil || got != want {
			t.Errorf("ParseSelector(%q) = %v, %v, want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"nope", "hybrid", "Selector(9)"} {
		if _, err := ParseSelector(name); err == nil {
			t.Errorf("ParseSelector(%q) accepted", name)
		}
	}
}

func TestOracleCached(t *testing.T) {
	f := newFixture(t, 20, 4, 3)
	a := f.sys.Oracle(100)
	b := f.sys.Oracle(100)
	if a != b {
		t.Error("oracle not cached per slot")
	}
	if f.sys.Oracle(101) == a {
		t.Error("different slots share an oracle")
	}
}

func TestGSPEstimatorAdapter(t *testing.T) {
	f := newFixture(t, 30, 5, 12)
	var est baselines.Estimator = f.sys.NewGSPEstimator(50)
	if est.Name() != "GSP" {
		t.Error("name")
	}
	got, err := est.Estimate(map[int]float64{0: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 || got[0] != 42 {
		t.Errorf("adapter output wrong: len=%d v0=%v", len(got), got[0])
	}
	if _, err := est.Estimate(map[int]float64{-1: 2}); err == nil {
		t.Error("adapter accepted bad observation")
	}
}
