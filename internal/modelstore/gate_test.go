package modelstore

import (
	"math"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/tslot"
)

// holdoutFromHistory builds holdout samples from a recorded day: the first
// `roads` roads' true speeds at each given slot.
func holdoutFromHistory(f *fixture, day int, slots []tslot.Slot, roads int) []HoldoutSample {
	var out []HoldoutSample
	for _, t := range slots {
		speeds := make(map[int]float64, roads)
		for r := 0; r < roads; r++ {
			speeds[r] = f.hist.At(day, t, r)
		}
		out = append(out, HoldoutSample{Slot: t, Speeds: speeds})
	}
	return out
}

func TestValidateModelStructural(t *testing.T) {
	f := newFixture(t, 16, 3, 7)
	if err := ValidateModel(f.net, f.model()); err != nil {
		t.Fatalf("fitted model refused: %v", err)
	}

	nan := f.model().Clone()
	nan.SetMu(5, 3, math.NaN())
	if err := ValidateModel(f.net, nan); err == nil {
		t.Error("NaN μ accepted")
	}
	inf := f.model().Clone()
	inf.SetMu(0, 0, math.Inf(1))
	if err := ValidateModel(f.net, inf); err == nil {
		t.Error("Inf μ accepted")
	}
	huge := f.model().Clone()
	huge.SetMu(200, 1, 1e6)
	if err := ValidateModel(f.net, huge); err == nil {
		t.Error("|μ|=1e6 accepted")
	}

	// Wrong road count.
	small := network.Synthetic(network.SyntheticOptions{Roads: 12, Seed: 7})
	if err := ValidateModel(small, f.model()); err == nil {
		t.Error("wrong road count accepted")
	}
	// Same road count, different topology.
	other := network.Synthetic(network.SyntheticOptions{Roads: 16, Seed: 77})
	if NetworkTopologyHash(other) != NetworkTopologyHash(f.net) {
		if err := ValidateModel(other, f.model()); err == nil {
			t.Error("wrong topology accepted")
		}
	}
}

func TestGateRefusesStructuralCorruption(t *testing.T) {
	f := newFixture(t, 16, 3, 7)
	cand := f.model().Clone()
	cand.SetMu(17, 2, math.NaN())
	gr := Gate(f.net, f.model(), cand, nil)
	if !gr.Refused {
		t.Fatal("NaN candidate admitted")
	}
	if gr.LLChecked {
		t.Error("likelihood check ran on a structurally invalid candidate")
	}
}

func TestGateLikelihoodRegression(t *testing.T) {
	f := newFixture(t, 16, 3, 7)
	day := f.hist.Days - 1
	holdout := holdoutFromHistory(f, day, []tslot.Slot{100, 101, 102}, 10)

	// Identical candidate: zero regression, admitted, LL checked.
	gr := Gate(f.net, f.model(), f.model().Clone(), holdout)
	if gr.Refused {
		t.Fatalf("identical candidate refused: %s", gr.Reason)
	}
	if !gr.LLChecked || gr.Observations < minHoldout {
		t.Fatalf("LL check did not engage: %+v", gr)
	}
	// Map-iteration order varies the summation order, so identical models
	// agree only to floating-point reassociation error.
	if math.Abs(gr.CandidateLL-gr.LiveLL) > 1e-9 {
		t.Errorf("identical models scored differently: %v vs %v", gr.CandidateLL, gr.LiveLL)
	}

	// Candidate whose μ is shifted far from the holdout truth: must regress
	// beyond tolerance and be refused.
	worse := f.model().Clone()
	for _, s := range []tslot.Slot{100, 101, 102} {
		for r := 0; r < 10; r++ {
			worse.SetMu(s, r, worse.Mu(s, r)+40)
		}
	}
	gr = Gate(f.net, f.model(), worse, holdout)
	if !gr.Refused {
		t.Fatalf("likelihood-regressing candidate admitted (live %v cand %v)", gr.LiveLL, gr.CandidateLL)
	}
	if !strings.Contains(gr.Reason, "regressed") {
		t.Errorf("refusal reason %q does not name the regression", gr.Reason)
	}

	// Variance inflation must not rescue the bad candidate: the normalizer
	// terms in the likelihood penalize blown-up σ.
	inflated := worse.Clone()
	for _, s := range []tslot.Slot{100, 101, 102} {
		for r := 0; r < 10; r++ {
			inflated.SetSigma(s, r, 60)
		}
	}
	gr = Gate(f.net, f.model(), inflated, holdout)
	if !gr.Refused {
		t.Error("variance-inflated regressing candidate gamed the gate")
	}
}

func TestGateMinHoldout(t *testing.T) {
	f := newFixture(t, 16, 3, 7)
	day := f.hist.Days - 1
	tiny := holdoutFromHistory(f, day, []tslot.Slot{100}, 3) // 3 < MinHoldout

	// A regressing candidate sails through on structural checks alone when
	// the holdout is too small to be statistically meaningful.
	worse := f.model().Clone()
	for r := 0; r < 3; r++ {
		worse.SetMu(100, r, worse.Mu(100, r)+40)
	}
	gr := Gate(f.net, f.model(), worse, tiny)
	if gr.LLChecked {
		t.Errorf("LL check engaged with %d < %d observations", gr.Observations, minHoldout)
	}
	if gr.Refused {
		t.Errorf("structurally valid candidate refused without LL evidence: %s", gr.Reason)
	}
}

func TestHoldoutLLEdgeTerms(t *testing.T) {
	f := newFixture(t, 16, 3, 7)
	day := f.hist.Days - 1
	// All roads observed → co-observed edge terms contribute; a sample with a
	// single road has none. Both must produce finite scores.
	full := holdoutFromHistory(f, day, []tslot.Slot{50}, f.net.N())
	ll, n := HoldoutLL(f.net, f.model(), full)
	if n != f.net.N() {
		t.Fatalf("counted %d observations, want %d", n, f.net.N())
	}
	if math.IsNaN(ll) || math.IsInf(ll, 0) {
		t.Fatalf("non-finite holdout LL %v", ll)
	}
	if _, n := HoldoutLL(f.net, f.model(), nil); n != 0 {
		t.Errorf("empty holdout counted %d observations", n)
	}
}
