package rtf_test

import (
	"math"
	. "repro/internal/rtf"
	"testing"

	"repro/internal/network"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

func testSetup(tb testing.TB, roads, days int, seed int64) (*network.Network, *speedgen.History) {
	tb.Helper()
	net := network.Synthetic(network.SyntheticOptions{Roads: roads, Seed: seed})
	h, err := speedgen.Generate(net, speedgen.Default(days, seed+1))
	if err != nil {
		tb.Fatal(err)
	}
	return net, h
}

func TestNewModelDefaults(t *testing.T) {
	net, _ := testSetup(t, 20, 2, 1)
	m := New(net)
	if m.N() != 20 {
		t.Fatalf("N = %d", m.N())
	}
	if len(m.Edges()) != net.M() {
		t.Fatalf("edges = %d, want %d", len(m.Edges()), net.M())
	}
	if m.Mu(0, 0) != 0 || m.Sigma(0, 0) != SigmaMin {
		t.Errorf("defaults: μ=%v σ=%v", m.Mu(0, 0), m.Sigma(0, 0))
	}
	e := m.Edges()[0]
	if m.Rho(5, e[0], e[1]) != RhoMin {
		t.Errorf("default ρ = %v", m.Rho(5, e[0], e[1]))
	}
	if m.Rho(0, 0, 0) != 0 {
		t.Errorf("Rho of non-edge should be 0")
	}
}

func TestEdgeIndexSymmetry(t *testing.T) {
	net, _ := testSetup(t, 20, 2, 2)
	m := New(net)
	for _, e := range m.Edges() {
		if m.EdgeIndex(e[0], e[1]) != m.EdgeIndex(e[1], e[0]) {
			t.Fatalf("EdgeIndex asymmetric for %v", e)
		}
	}
	if m.EdgeIndex(0, 0) != -1 {
		t.Error("EdgeIndex of non-edge should be -1")
	}
}

func TestSetters(t *testing.T) {
	net, _ := testSetup(t, 10, 2, 3)
	m := New(net)
	m.SetMu(0, 1, 42)
	if m.Mu(0, 1) != 42 {
		t.Error("SetMu")
	}
	m.SetSigma(0, 1, -5)
	if m.Sigma(0, 1) != SigmaMin {
		t.Error("SetSigma did not clamp low")
	}
	m.SetSigma(0, 1, 1e9)
	if m.Sigma(0, 1) != SigmaMax {
		t.Error("SetSigma did not clamp high")
	}
	e := m.Edges()[0]
	m.SetRho(0, e[0], e[1], 2.0)
	if m.Rho(0, e[0], e[1]) != RhoMax {
		t.Error("SetRho did not clamp")
	}
	defer func() {
		if recover() == nil {
			t.Error("SetRho on non-edge did not panic")
		}
	}()
	m.SetRho(0, 0, 0, 0.5)
}

func TestViewBasics(t *testing.T) {
	net, _ := testSetup(t, 10, 2, 4)
	m := New(net)
	v := m.At(100)
	if v.Slot != 100 || len(v.Mu) != 10 {
		t.Fatalf("view: slot=%d len=%d", v.Slot, len(v.Mu))
	}
	e := m.Edges()[0]
	m.SetRho(100, e[0], e[1], 0.7)
	if v.RhoEdge(e[0], e[1]) != 0.7 {
		t.Error("view does not alias the model")
	}
	if v.RhoEdge(0, 0) != 0 {
		t.Error("RhoEdge non-edge")
	}
	defer func() {
		if recover() == nil {
			t.Error("At(invalid) did not panic")
		}
	}()
	m.At(-1)
}

func TestEdgeParams(t *testing.T) {
	net, _ := testSetup(t, 10, 2, 5)
	m := New(net)
	e := m.Edges()[0]
	i, j := e[0], e[1]
	m.SetMu(0, i, 50)
	m.SetMu(0, j, 40)
	m.SetSigma(0, i, 4)
	m.SetSigma(0, j, 3)
	m.SetRho(0, i, j, 0.5)
	v := m.At(0)
	muIJ, q := v.EdgeParams(i, j)
	if muIJ != 10 {
		t.Errorf("μ_ij = %v, want 10", muIJ)
	}
	want := 16.0 + 9 - 2*0.5*4*3
	if math.Abs(q-want) > 1e-9 {
		t.Errorf("σ_ij² = %v, want %v", q, want)
	}
	// antisymmetry of μ_ij, symmetry of σ_ij²
	muJI, q2 := v.EdgeParams(j, i)
	if muJI != -10 || math.Abs(q2-q) > 1e-12 {
		t.Errorf("pair params not (anti)symmetric: %v %v", muJI, q2)
	}
	// σ_ij² floor when ρ→1 and σ_i=σ_j
	m.SetSigma(0, i, 1)
	m.SetSigma(0, j, 1)
	m.SetRho(0, i, j, RhoMax)
	_, qf := m.At(0).EdgeParams(i, j)
	if qf <= 0 {
		t.Errorf("σ_ij² floor failed: %v", qf)
	}
}

func TestFitMomentsRecoversStructure(t *testing.T) {
	net, h := testSetup(t, 60, 10, 6)
	m := New(net)
	if err := FitMoments(m, h, 1); err != nil {
		t.Fatal(err)
	}
	// μ should be close to the generator's periodic profile at off-peak.
	slot := tslot.Slot(24) // 02:00, no rush influence
	var apeSum float64
	for r := 0; r < net.N(); r++ {
		truth := h.Profiles[r].Speed(slot)
		ape := math.Abs(m.Mu(slot, r)-truth) / truth
		apeSum += ape
	}
	if mape := apeSum / float64(net.N()); mape > 0.25 {
		t.Errorf("moment μ MAPE vs profile = %.3f, want < 0.25", mape)
	}
	// Weak-periodicity (high-volatility) roads must get larger σ on average.
	var weakSig, strongSig float64
	var weakN, strongN int
	for r := 0; r < net.N(); r++ {
		if h.Profiles[r].Volatility >= 0.25 {
			weakSig += m.Sigma(slot, r)
			weakN++
		} else if h.Profiles[r].Volatility <= 0.08 {
			strongSig += m.Sigma(slot, r)
			strongN++
		}
	}
	if weakN == 0 || strongN == 0 {
		t.Skip("volatility classes not represented")
	}
	if weakSig/float64(weakN) <= strongSig/float64(strongN) {
		t.Errorf("σ does not separate weak (%.2f) from strong (%.2f) periodicity",
			weakSig/float64(weakN), strongSig/float64(strongN))
	}
	// ρ must be within bounds everywhere and above the floor somewhere
	// (the generator creates real spatial correlation).
	above := 0
	for _, e := range m.Edges() {
		rho := m.Rho(slot, e[0], e[1])
		if rho < RhoMin || rho > RhoMax {
			t.Fatalf("ρ %v out of bounds", rho)
		}
		if rho > 0.3 {
			above++
		}
	}
	if above == 0 {
		t.Error("no edge correlation above 0.3; generator/fit mismatch")
	}
}

func TestFitMomentsErrors(t *testing.T) {
	net, h := testSetup(t, 10, 2, 7)
	m := New(net)
	if err := FitMoments(m, h, -1); err == nil {
		t.Error("negative window accepted")
	}
	one, err := speedgen.Generate(net, speedgen.Default(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := FitMoments(m, one, 0); err == nil {
		t.Error("single-day history accepted")
	}
}

func TestRefineCCDImprovesLikelihood(t *testing.T) {
	net, h := testSetup(t, 40, 8, 8)
	slot := tslot.Slot(120)

	// Start from deliberately bad parameters (paper's "small random values").
	m := New(net)
	for r := 0; r < net.N(); r++ {
		m.SetMu(slot, r, 10)
		m.SetSigma(slot, r, 5)
	}
	opt := DefaultCCD()
	opt.MaxIters = 200
	opt.Lambda = 0.05
	stats, err := RefineCCD(m, net, h, []tslot.Slot{slot}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 {
		t.Fatalf("stats = %d entries", len(stats))
	}
	fs := stats[0]
	if fs.Iterations == 0 || len(fs.GradTrace) != fs.Iterations {
		t.Fatalf("stats bookkeeping: %+v", fs)
	}
	// Gradient must shrink substantially from the first sweep.
	if fs.GradTrace[len(fs.GradTrace)-1] > fs.GradTrace[0]/4 {
		t.Errorf("μ gradient did not shrink: first=%v last=%v",
			fs.GradTrace[0], fs.GradTrace[len(fs.GradTrace)-1])
	}
	// Refined μ should approximate the sample means.
	mm := New(net)
	if err := FitMoments(mm, h, opt.Window); err != nil {
		t.Fatal(err)
	}
	var diff, base float64
	for r := 0; r < net.N(); r++ {
		diff += math.Abs(m.Mu(slot, r) - mm.Mu(slot, r))
		base += mm.Mu(slot, r)
	}
	if diff/base > 0.25 {
		t.Errorf("CCD μ far from moment μ: rel diff %.3f", diff/base)
	}
}

func TestRefineCCDFromMomentsConvergesFast(t *testing.T) {
	net, h := testSetup(t, 40, 8, 9)
	m := New(net)
	if err := FitMoments(m, h, 1); err != nil {
		t.Fatal(err)
	}
	opt := DefaultCCD()
	opt.Tol = 0.05
	opt.MaxIters = 100
	stats, err := RefineCCD(m, net, h, []tslot.Slot{60}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !stats[0].Converged {
		t.Errorf("CCD from moment init did not converge in %d iters (maxGrad=%v)",
			opt.MaxIters, stats[0].MaxGrad)
	}
}

func TestRefineCCDParallelMatchesSequential(t *testing.T) {
	net, h := testSetup(t, 30, 6, 20)
	slots := []tslot.Slot{10, 60, 110, 160, 210, 260}

	run := func(parallel bool) (*Model, []FitStats) {
		m := New(net)
		if err := FitMoments(m, h, 1); err != nil {
			t.Fatal(err)
		}
		opt := DefaultCCD()
		opt.MaxIters = 30
		opt.Parallel = parallel
		opt.Workers = 4
		stats, err := RefineCCD(m, net, h, slots, opt)
		if err != nil {
			t.Fatal(err)
		}
		return m, stats
	}
	seqM, seqS := run(false)
	parM, parS := run(true)
	for i, slot := range slots {
		if seqS[i].Iterations != parS[i].Iterations || seqS[i].Converged != parS[i].Converged {
			t.Fatalf("slot %d stats differ: %+v vs %+v", slot, seqS[i], parS[i])
		}
		for r := 0; r < net.N(); r++ {
			if seqM.Mu(slot, r) != parM.Mu(slot, r) || seqM.Sigma(slot, r) != parM.Sigma(slot, r) {
				t.Fatalf("slot %d road %d parameters differ", slot, r)
			}
		}
	}
}

func TestRefineCCDValidation(t *testing.T) {
	net, h := testSetup(t, 10, 2, 10)
	m := New(net)
	if _, err := RefineCCD(m, net, h, []tslot.Slot{0}, CCDOptions{Lambda: 0, MaxIters: 1}); err == nil {
		t.Error("zero lambda accepted")
	}
	if _, err := RefineCCD(m, net, h, []tslot.Slot{0}, CCDOptions{Lambda: 0.1, MaxIters: 0}); err == nil {
		t.Error("zero MaxIters accepted")
	}
	if _, err := RefineCCD(m, net, h, []tslot.Slot{999}, DefaultCCD()); err == nil {
		t.Error("invalid slot accepted")
	}
	other := network.Synthetic(network.SyntheticOptions{Roads: 11, Seed: 1})
	if _, err := RefineCCD(m, other, h, []tslot.Slot{0}, DefaultCCD()); err == nil {
		t.Error("mismatched network accepted")
	}
}

func TestJointLikelihoodPrefersTruth(t *testing.T) {
	net, h := testSetup(t, 30, 8, 11)
	m := New(net)
	if err := FitMoments(m, h, 1); err != nil {
		t.Fatal(err)
	}
	slot := tslot.Slot(150)
	v := m.At(slot)
	atMu := append([]float64(nil), v.Mu...)
	llMu := JointLikelihood(net, v, atMu)
	if llMu > 0 {
		t.Errorf("likelihood at μ is positive: %v", llMu)
	}
	// Perturbing one road away from μ must not increase the likelihood.
	pert := append([]float64(nil), atMu...)
	pert[3] += 25
	if ll := JointLikelihood(net, v, pert); ll >= llMu {
		t.Errorf("perturbed likelihood %v ≥ μ likelihood %v", ll, llMu)
	}
}

func TestJointLikelihoodPanicsOnBadLength(t *testing.T) {
	net, _ := testSetup(t, 10, 2, 12)
	m := New(net)
	defer func() {
		if recover() == nil {
			t.Error("bad length did not panic")
		}
	}()
	JointLikelihood(net, m.At(0), make([]float64, 3))
}
