package gsp

import (
	"context"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/rtf"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

func fitted(tb testing.TB, roads, days int, seed int64) (*network.Network, *rtf.Model, *speedgen.History) {
	tb.Helper()
	net := network.Synthetic(network.SyntheticOptions{Roads: roads, Seed: seed})
	h, err := speedgen.Generate(net, speedgen.Default(days, seed+1))
	if err != nil {
		tb.Fatal(err)
	}
	m := rtf.New(net)
	if err := rtf.FitMoments(m, h, 1); err != nil {
		tb.Fatal(err)
	}
	return net, m, h
}

func TestValidation(t *testing.T) {
	net, m, _ := fitted(t, 20, 4, 1)
	view := m.At(0)
	if _, err := Propagate(context.Background(), net, view, nil, Options{Epsilon: 0, MaxIters: 10}); err == nil {
		t.Error("ε=0 accepted")
	}
	if _, err := Propagate(context.Background(), net, view, nil, Options{Epsilon: 0.1, MaxIters: 0}); err == nil {
		t.Error("MaxIters=0 accepted")
	}
	if _, err := Propagate(context.Background(), net, view, map[int]float64{99: 10}, DefaultOptions()); err == nil {
		t.Error("out-of-range observation accepted")
	}
	if _, err := Propagate(context.Background(), net, view, map[int]float64{0: math.NaN()}, DefaultOptions()); err == nil {
		t.Error("NaN observation accepted")
	}
	if _, err := Propagate(context.Background(), net, view, map[int]float64{0: -5}, DefaultOptions()); err == nil {
		t.Error("negative observation accepted")
	}
	other := network.Synthetic(network.SyntheticOptions{Roads: 21, Seed: 2})
	if _, err := Propagate(context.Background(), other, view, nil, DefaultOptions()); err == nil {
		t.Error("mismatched network accepted")
	}
}

func TestNoObservationsReturnsMu(t *testing.T) {
	net, m, _ := fitted(t, 20, 4, 3)
	view := m.At(100)
	res, err := Propagate(context.Background(), net, view, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("empty observation should converge immediately")
	}
	for i, v := range res.Speeds {
		if v != view.Mu[i] {
			t.Fatalf("road %d moved from μ without observations", i)
		}
	}
}

func TestObservedRoadsPinned(t *testing.T) {
	net, m, _ := fitted(t, 30, 4, 4)
	view := m.At(90)
	obs := map[int]float64{2: 71.5, 11: 13.25}
	res, err := Propagate(context.Background(), net, view, obs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range obs {
		if res.Speeds[r] != v {
			t.Errorf("observed road %d drifted: %v != %v", r, res.Speeds[r], v)
		}
	}
}

func TestPropagationIncreasesLikelihood(t *testing.T) {
	net, m, h := fitted(t, 50, 6, 5)
	slot := tslot.Slot(96)
	view := m.At(slot)
	// Observe a handful of ground-truth speeds from a held-out day pattern.
	obs := map[int]float64{}
	for _, r := range []int{0, 7, 19, 33, 41} {
		obs[r] = h.At(h.Days-1, slot, r)
	}
	// Baseline: μ except observed.
	baseline := append([]float64(nil), view.Mu...)
	for r, v := range obs {
		baseline[r] = v
	}
	llBefore := rtf.JointLikelihood(net, view, baseline)
	res, err := Propagate(context.Background(), net, view, obs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	llAfter := rtf.JointLikelihood(net, view, res.Speeds)
	if llAfter < llBefore {
		t.Errorf("propagation decreased likelihood: %v -> %v", llBefore, llAfter)
	}
	if !res.Converged {
		t.Errorf("did not converge: %+v iterations=%d delta=%v", res.Converged, res.Iterations, res.MaxDelta)
	}
}

func TestNeighborsMoveTowardObservation(t *testing.T) {
	// Chain 0-1-2-3-4 with strong correlation: observing a big slowdown at
	// road 0 must pull road 1 below its mean, road 2 less so, etc.
	g := networkChain(t, 5, 0.95)
	view := g.model.At(0)
	obs := map[int]float64{0: view.Mu[0] - 20}
	res, err := Propagate(context.Background(), g.net, view, obs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	d1 := view.Mu[1] - res.Speeds[1]
	d2 := view.Mu[2] - res.Speeds[2]
	d3 := view.Mu[3] - res.Speeds[3]
	if d1 <= 0 {
		t.Errorf("1-hop neighbor did not slow down: Δ=%v", d1)
	}
	if !(d1 > d2 && d2 > d3) {
		t.Errorf("influence does not decay with hops: Δ1=%v Δ2=%v Δ3=%v", d1, d2, d3)
	}
}

// networkChain builds a path network with uniform μ=50, σ=5, ρ as given.
type chainFixture struct {
	net   *network.Network
	model *rtf.Model
}

func networkChain(tb testing.TB, n int, rho float64) chainFixture {
	tb.Helper()
	f, err := network.New(graph.Path(n), make([]network.Road, n))
	if err != nil {
		tb.Fatal(err)
	}
	m := rtf.New(f)
	for t := tslot.Slot(0); t < 1; t++ {
		for i := 0; i < n; i++ {
			m.SetMu(t, i, 50)
			m.SetSigma(t, i, 5)
		}
		for i := 0; i+1 < n; i++ {
			m.SetRho(t, i, i+1, rho)
		}
	}
	return chainFixture{net: f, model: m}
}

func TestUnreachableStayAtMu(t *testing.T) {
	// Two components: observe in one; the other must stay at μ.
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {4, 5}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	net, err := network.New(g, make([]network.Road, 6))
	if err != nil {
		t.Fatal(err)
	}
	m := rtf.New(net)
	for i := 0; i < 6; i++ {
		m.SetMu(0, i, 40)
		m.SetSigma(0, i, 3)
	}
	for _, e := range m.Edges() {
		m.SetRho(0, e[0], e[1], 0.9)
	}
	res, err := Propagate(context.Background(), net, m.At(0), map[int]float64{0: 10}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{3, 4, 5} {
		if res.Speeds[r] != 40 {
			t.Errorf("unreachable road %d moved to %v", r, res.Speeds[r])
		}
	}
	if res.Speeds[1] >= 40 {
		t.Errorf("reachable neighbor did not move: %v", res.Speeds[1])
	}
}

func TestSpeedsNonNegative(t *testing.T) {
	net, m, _ := fitted(t, 40, 4, 8)
	view := m.At(10)
	res, err := Propagate(context.Background(), net, view, map[int]float64{0: 0, 5: 0, 9: 0}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Speeds {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("road %d speed %v", i, v)
		}
	}
}

// TestWarmStart seeds a run with its own converged field: it needs fewer
// sweeps than the cold run and serves the same field. A seed that does not
// cover the network is rejected.
func TestWarmStart(t *testing.T) {
	net, m, h := fitted(t, 100, 6, 30)
	slot := tslot.Slot(100)
	view := m.At(slot)
	obs := map[int]float64{}
	for r := 0; r < net.N(); r += 9 {
		obs[r] = h.At(0, slot, r)
	}
	opt := Options{Epsilon: 1e-6, MaxIters: 500}
	cold, err := Propagate(context.Background(), net, view, obs, opt)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Propagate(context.Background(), net, view, obs, opt.WithInitial(cold))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm start took %d sweeps, cold %d", warm.Iterations, cold.Iterations)
	}
	for i := range cold.Speeds {
		if math.Abs(cold.Speeds[i]-warm.Speeds[i]) > 1e-4 {
			t.Fatalf("warm result diverges at road %d: %v vs %v", i, warm.Speeds[i], cold.Speeds[i])
		}
	}
	short := cold
	short.Speeds = make([]float64, 3)
	if _, err := Propagate(context.Background(), net, view, obs, opt.WithInitial(short)); err == nil {
		t.Error("short initial field accepted")
	}
}

func TestWithInitialMatchesCold(t *testing.T) {
	net, m, h := fitted(t, 120, 6, 31)
	slot := tslot.Slot(110)
	view := m.At(slot)
	opt := Options{Epsilon: 1e-6, MaxIters: 500}

	obsA := map[int]float64{}
	for r := 0; r < net.N(); r += 7 {
		obsA[r] = h.At(0, slot, r)
	}
	coldA, err := Propagate(context.Background(), net, view, obsA, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !coldA.Converged {
		t.Fatal("cold A did not converge")
	}
	if coldA.WarmStarted {
		t.Error("cold run flagged WarmStarted")
	}
	if len(coldA.Observed) != len(obsA) {
		t.Errorf("Observed snapshot has %d entries, want %d", len(coldA.Observed), len(obsA))
	}

	// Perturb the observation set: change two, drop one, add one.
	obsB := map[int]float64{}
	for r, v := range obsA {
		obsB[r] = v
	}
	obsB[0] += 5
	obsB[7] -= 3
	delete(obsB, 14)
	obsB[3] = h.At(1, slot, 3)

	coldB, err := Propagate(context.Background(), net, view, obsB, opt)
	if err != nil {
		t.Fatal(err)
	}
	warmB, err := Propagate(context.Background(), net, view, obsB, opt.WithInitial(coldA))
	if err != nil {
		t.Fatal(err)
	}
	if !warmB.WarmStarted {
		t.Error("warm run not flagged WarmStarted")
	}
	if !coldB.Converged || !warmB.Converged {
		t.Fatalf("convergence: cold=%v warm=%v", coldB.Converged, warmB.Converged)
	}
	// Both satisfy the same ε fixed-point criterion; they must agree to well
	// within a small multiple of ε.
	for i := range coldB.Speeds {
		if math.Abs(coldB.Speeds[i]-warmB.Speeds[i]) > 10*opt.Epsilon {
			t.Fatalf("warm diverges from cold at road %d: %v vs %v",
				i, warmB.Speeds[i], coldB.Speeds[i])
		}
	}
	if warmB.Iterations > coldB.Iterations {
		t.Errorf("incremental run swept more than cold: warm=%d cold=%d",
			warmB.Iterations, coldB.Iterations)
	}

	// Identical observations: the seed already is the fixed point, so the run
	// quiesces in at most a couple of verification sweeps and reports savings.
	warmSame, err := Propagate(context.Background(), net, view, obsA, opt.WithInitial(coldA))
	if err != nil {
		t.Fatal(err)
	}
	if !warmSame.Converged {
		t.Fatal("warm re-run did not converge")
	}
	if warmSame.Iterations > 2 {
		t.Errorf("unchanged observations swept %d times", warmSame.Iterations)
	}
	if coldA.Iterations > 2 && warmSame.SweepsSaved == 0 {
		t.Errorf("no sweeps saved: seed took %d, warm took %d",
			coldA.Iterations, warmSame.Iterations)
	}
	for i := range coldA.Speeds {
		if math.Abs(coldA.Speeds[i]-warmSame.Speeds[i]) > 10*opt.Epsilon {
			t.Fatalf("unchanged warm re-run moved road %d: %v vs %v",
				i, warmSame.Speeds[i], coldA.Speeds[i])
		}
	}

	// Wrong-length seed rejected.
	bad := coldA
	bad.Speeds = bad.Speeds[:3]
	if _, err := Propagate(context.Background(), net, view, obsB, opt.WithInitial(bad)); err == nil {
		t.Error("short initial field accepted")
	}
}

func TestWithInitialUnreachableReset(t *testing.T) {
	// Two components 0-1-2 and 4-5. First run observes in both; second run
	// drops the 4-5 observation — a cold run leaves 3,4,5 at μ, so the warm
	// run must reset them even though no sweep reaches them.
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {4, 5}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	net, err := network.New(g, make([]network.Road, 6))
	if err != nil {
		t.Fatal(err)
	}
	m := rtf.New(net)
	for i := 0; i < 6; i++ {
		m.SetMu(0, i, 40)
		m.SetSigma(0, i, 3)
	}
	for _, e := range m.Edges() {
		m.SetRho(0, e[0], e[1], 0.9)
	}
	view := m.At(0)
	first, err := Propagate(context.Background(), net, view, map[int]float64{0: 10, 4: 80}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if first.Speeds[5] == 40 {
		t.Fatal("observation at 4 did not move road 5")
	}
	second, err := Propagate(context.Background(), net, view, map[int]float64{0: 12}, DefaultOptions().WithInitial(first))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Propagate(context.Background(), net, view, map[int]float64{0: 12}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{3, 4, 5} {
		if second.Speeds[r] != cold.Speeds[r] {
			t.Errorf("road %d: warm %v, cold %v", r, second.Speeds[r], cold.Speeds[r])
		}
		if second.Speeds[r] != 40 {
			t.Errorf("unreachable road %d kept stale warm value %v", r, second.Speeds[r])
		}
	}
}

func TestUncertaintyField(t *testing.T) {
	// Chain with strong correlation: SD must be ~0 on the probed road,
	// grow with hop distance, and approach the prior σ far away.
	f := networkChain(t, 8, 0.95)
	view := f.model.At(0)
	obs := map[int]float64{0: 45}
	res, err := Propagate(context.Background(), f.net, view, obs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SD) != 8 {
		t.Fatalf("SD len = %d", len(res.SD))
	}
	if res.SD[0] != 0 {
		t.Errorf("probed road SD = %v, want 0", res.SD[0])
	}
	for i := 1; i < 7; i++ {
		if res.SD[i] >= res.SD[i+1]+1e-9 && i < 5 {
			continue // allow equality once saturated
		}
		if res.SD[i] > res.SD[i+1]+1e-9 {
			t.Errorf("SD not non-decreasing with hops: SD[%d]=%v > SD[%d]=%v",
				i, res.SD[i], i+1, res.SD[i+1])
		}
	}
	if res.SD[1] >= view.Sigma[1] {
		t.Errorf("1-hop SD %v not below prior σ %v", res.SD[1], view.Sigma[1])
	}
	if res.SD[7] > view.Sigma[7]+1e-9 {
		t.Errorf("far SD %v above prior σ %v", res.SD[7], view.Sigma[7])
	}
	// With no observations the SD is the prior everywhere.
	res0, err := Propagate(context.Background(), f.net, view, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res0.SD {
		if s != view.Sigma[i] {
			t.Fatalf("no-obs SD[%d] = %v, want prior %v", i, s, view.Sigma[i])
		}
	}
}

func TestMaxItersRespected(t *testing.T) {
	net, m, h := fitted(t, 60, 4, 9)
	view := m.At(50)
	obs := map[int]float64{0: h.At(0, 50, 0)}
	res, err := Propagate(context.Background(), net, view, obs, Options{Epsilon: 1e-300, MaxIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 3 {
		t.Errorf("iterations = %d > MaxIters", res.Iterations)
	}
	if res.Converged {
		t.Error("converged with ε=1e-300 in 3 sweeps (implausible)")
	}
}

func TestPropagateAborts(t *testing.T) {
	net, m, _ := fitted(t, 30, 4, 77)
	view := m.At(100)
	observed := map[int]float64{0: 10}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: no sweep may run
	res, err := Propagate(ctx, net, view, observed, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("expired context did not abort")
	}
	if res.Iterations != 0 {
		t.Errorf("ran %d sweeps after expiry", res.Iterations)
	}
	// Best-so-far: the initialization field (observations pinned, μ
	// elsewhere) with per-road SDs still attached.
	if len(res.Speeds) != net.N() || len(res.SD) != net.N() {
		t.Fatal("aborted result missing field or SD")
	}
	if res.Speeds[0] != 10 {
		t.Errorf("observation not pinned: %v", res.Speeds[0])
	}

	// A live context converges, and a nil one behaves like it.
	live, err := Propagate(context.Background(), net, view, observed, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if live.Aborted || !live.Converged {
		t.Error("live context aborted or failed to converge")
	}
	nilCtx, err := Propagate(nil, net, view, observed, DefaultOptions()) //nolint:staticcheck
	if err != nil {
		t.Fatalf("nil context rejected: %v", err)
	}
	for i := range live.Speeds {
		if live.Speeds[i] != nilCtx.Speeds[i] {
			t.Fatalf("nil and live context fields differ at %d", i)
		}
	}
}
