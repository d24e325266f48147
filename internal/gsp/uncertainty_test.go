package gsp

import (
	"context"
	"math"
	"testing"
)

// TestObsNoiseDegeneratesToExact pins backwards compatibility: a zero noise
// vector (and a nil one) reproduces the noise-free SD field bit for bit.
func TestObsNoiseDegeneratesToExact(t *testing.T) {
	net, m, h := fitted(t, 40, 4, 3)
	view := m.At(50)
	obs := map[int]float64{2: h.At(0, 50, 2), 9: h.At(0, 50, 9), 17: h.At(0, 50, 17)}

	base, err := Propagate(context.Background(), net, view, obs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	optZero := DefaultOptions()
	optZero.ObsNoise = make([]float64, net.N())
	withZero, err := Propagate(context.Background(), net, view, obs, optZero)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.SD {
		if base.SD[i] != withZero.SD[i] {
			t.Fatalf("SD[%d]: zero noise %v != nil noise %v", i, withZero.SD[i], base.SD[i])
		}
		if base.Speeds[i] != withZero.Speeds[i] {
			t.Fatalf("Speeds[%d] diverged under zero noise", i)
		}
	}
}

// TestObsNoiseWidensObservedRoads: with R_r > 0 the probed road's SD is
// exactly √R_r, neighbors widen relative to the noise-free run, and the
// served speeds are unchanged (noise touches only the uncertainty channel).
func TestObsNoiseWidensObservedRoads(t *testing.T) {
	f := networkChain(t, 8, 0.95)
	view := f.model.At(0)
	obs := map[int]float64{0: 45}

	exact, err := Propagate(context.Background(), f.net, view, obs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.ObsNoise = make([]float64, 8)
	opt.ObsNoise[0] = 2.25 // R = 1.5²
	noisy, err := Propagate(context.Background(), f.net, view, obs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := noisy.SD[0], 1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("observed road SD = %v, want √R = %v", got, want)
	}
	for i := 1; i < 8; i++ {
		if noisy.SD[i] < exact.SD[i]-1e-12 {
			t.Errorf("SD[%d] = %v narrower than noise-free %v", i, noisy.SD[i], exact.SD[i])
		}
	}
	if noisy.SD[1] <= exact.SD[1] {
		t.Errorf("1-hop SD %v must widen above noise-free %v", noisy.SD[1], exact.SD[1])
	}
	for i := range exact.Speeds {
		if exact.Speeds[i] != noisy.Speeds[i] {
			t.Fatalf("Speeds[%d] changed under observation noise", i)
		}
	}
}

// TestSDScaleAppliesToFusedOnly: the calibration factor scales fused roads'
// SDs linearly and leaves the observed road's √R untouched.
func TestSDScaleAppliesToFusedOnly(t *testing.T) {
	f := networkChain(t, 6, 0.9)
	view := f.model.At(0)
	obs := map[int]float64{0: 45}

	opt := DefaultOptions()
	opt.ObsNoise = make([]float64, 6)
	opt.ObsNoise[0] = 4
	base, err := Propagate(context.Background(), f.net, view, obs, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.SDScale = 1.3
	scaled, err := Propagate(context.Background(), f.net, view, obs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.SD[0] != base.SD[0] {
		t.Errorf("observed road must not be scaled: %v vs %v", scaled.SD[0], base.SD[0])
	}
	for i := 1; i < 6; i++ {
		if base.Provenance[i] != ProvFused {
			continue
		}
		if got, want := scaled.SD[i], 1.3*base.SD[i]; math.Abs(got-want) > 1e-9 {
			t.Errorf("fused SD[%d] = %v, want 1.3×%v", i, got, base.SD[i])
		}
	}
}

// TestProvenanceLabels: observed roads are labeled observed, their connected
// component fused, and disconnected roads prior.
func TestProvenanceLabels(t *testing.T) {
	// Two disjoint chains inside one network: probe only the first.
	net, m, h := fitted(t, 40, 4, 7)
	view := m.At(50)
	obs := map[int]float64{4: h.At(0, 50, 4)}
	res, err := Propagate(context.Background(), net, view, obs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Provenance) != net.N() {
		t.Fatalf("provenance covers %d roads, want %d", len(res.Provenance), net.N())
	}
	if res.Provenance[4] != ProvObserved {
		t.Errorf("probed road labeled %v", res.Provenance[4])
	}
	seen := map[Provenance]int{}
	for _, p := range res.Provenance {
		seen[p]++
	}
	if seen[ProvObserved] != 1 {
		t.Errorf("observed count = %d, want 1", seen[ProvObserved])
	}
	if seen[ProvFused] == 0 {
		t.Errorf("no fused roads on a connected synthetic network")
	}
	// Unreached roads must still sit at μ with prior provenance.
	for i, p := range res.Provenance {
		if p == ProvPrior && res.Speeds[i] != view.Mu[i] {
			t.Errorf("prior road %d served %v, want μ %v", i, res.Speeds[i], view.Mu[i])
		}
	}

	// No observations at all: everything is prior.
	res0, err := Propagate(context.Background(), net, view, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res0.Provenance {
		if p != ProvPrior {
			t.Fatalf("road %d labeled %v with no observations", i, p)
		}
	}
}

func TestObsNoiseValidation(t *testing.T) {
	net, m, _ := fitted(t, 20, 4, 1)
	opt := DefaultOptions()
	opt.ObsNoise = make([]float64, 3) // wrong length
	if _, err := Propagate(context.Background(), net, m.At(0), map[int]float64{1: 30}, opt); err == nil {
		t.Fatal("short ObsNoise vector must be rejected")
	}
}
