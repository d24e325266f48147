package temporal

import (
	"math"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/rtf"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

// testModel builds a small network + model with distinguishable μ per slot so
// the wrap tests can tell which slot's prior the filter read.
func testModel(tb testing.TB, roads int) (*network.Network, *rtf.Model) {
	tb.Helper()
	net := network.Synthetic(network.SyntheticOptions{Roads: roads, Seed: 5})
	m := rtf.New(net)
	for t := 0; t < tslot.PerDay; t++ {
		for r := 0; r < net.N(); r++ {
			m.SetMu(tslot.Slot(t), r, 30+float64(t)/10+float64(r))
			m.SetSigma(tslot.Slot(t), r, 4)
		}
	}
	return net, m
}

func TestPredictUpdateBasics(t *testing.T) {
	_, m := testModel(t, 12)
	met := obs.NewPipeline(obs.NewRegistry(), obs.SystemClock()).Temporal
	f, err := New(m, 10, Params{Default: ClassParams{Phi: 0.8, Q: 2}}, nil, Options{Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	// Prior state: mean = μ, SD = σ.
	est := f.Now()
	if est.Slot != 10 {
		t.Fatalf("slot = %v", est.Slot)
	}
	if got, want := est.Speeds[3], m.Mu(10, 3); math.Abs(got-want) > 1e-12 {
		t.Errorf("prior mean road 3 = %v, want μ %v", got, want)
	}
	if math.Abs(est.SD[3]-4) > 1e-12 {
		t.Errorf("prior SD = %v, want σ=4", est.SD[3])
	}

	// An observation pulls the mean toward it and shrinks the variance.
	obsVal := m.Mu(10, 3) + 10
	if err := f.Update(map[int]float64{3: obsVal}, nil); err != nil {
		t.Fatal(err)
	}
	est = f.Now()
	if est.Speeds[3] <= m.Mu(10, 3) || est.Speeds[3] >= obsVal {
		t.Errorf("posterior mean %v not between prior %v and observation %v",
			est.Speeds[3], m.Mu(10, 3), obsVal)
	}
	if est.SD[3] >= 4 {
		t.Errorf("posterior SD %v did not shrink below prior 4", est.SD[3])
	}
	postDev := est.Speeds[3] - m.Mu(10, 3)

	// Predict: deviation decays by φ, variance widens, slot advances.
	steps, err := f.Advance(11)
	if err != nil || steps != 1 {
		t.Fatalf("advance: steps=%d err=%v", steps, err)
	}
	est2 := f.Now()
	wantDev := 0.8 * postDev
	if got := est2.Speeds[3] - m.Mu(11, 3); math.Abs(got-wantDev) > 1e-9 {
		t.Errorf("predicted deviation %v, want φ·%v = %v", got, postDev, wantDev)
	}
	if est2.SD[3] <= est.SD[3] {
		t.Errorf("predict did not widen SD: %v -> %v", est.SD[3], est2.SD[3])
	}
	if met.Predicts.Value() != 1 || met.Updates.Value() != 1 {
		t.Errorf("counters predicts=%d updates=%d, want 1/1",
			met.Predicts.Value(), met.Updates.Value())
	}
}

// TestMidnightWrapPredict is the satellite coverage for cyclic slot
// arithmetic at the midnight boundary: the predict step from slot 287 must
// land on slot 0 and re-base the state onto the day-wrapped prior μ^0,
// table-driven like the tslot tests.
func TestMidnightWrapPredict(t *testing.T) {
	_, m := testModel(t, 8)
	cases := []struct {
		name      string
		start     tslot.Slot
		advanceTo tslot.Slot
		wantSteps int
	}{
		{"mid-day single step", 100, 101, 1},
		{"into last slot", 286, 287, 1},
		{"midnight wrap 287->0", 287, 0, 1},
		{"wrap plus one", 287, 1, 2},
		{"wrap across span", 285, 2, 5},
		{"full-day no-op", 42, 42, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := New(m, tc.start, Params{Default: ClassParams{Phi: 0.9, Q: 1}}, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Put a known deviation on road 2 so the wrapped prior is testable.
			if err := f.Update(map[int]float64{2: m.Mu(tc.start, 2) + 8}, nil); err != nil {
				t.Fatal(err)
			}
			dev0 := f.Now().Speeds[2] - m.Mu(tc.start, 2)
			steps, err := f.Advance(tc.advanceTo)
			if err != nil {
				t.Fatal(err)
			}
			if steps != tc.wantSteps {
				t.Fatalf("steps = %d, want %d", steps, tc.wantSteps)
			}
			if got := f.Slot(); got != tc.advanceTo {
				t.Fatalf("slot = %v, want %v", got, tc.advanceTo)
			}
			est := f.Now()
			// The mean must sit on the *target* slot's prior (day-wrapped at
			// midnight) plus the geometrically decayed deviation.
			wantDev := dev0 * math.Pow(0.9, float64(tc.wantSteps))
			want := m.Mu(tc.advanceTo, 2) + wantDev
			if math.Abs(est.Speeds[2]-want) > 1e-9 {
				t.Errorf("mean after advance = %v, want μ[%v]+%v = %v",
					est.Speeds[2], tc.advanceTo, wantDev, want)
			}
		})
	}
}

// TestMidnightWrapForecast: a forecast fan crossing midnight must read the
// day-wrapped priors for the post-wrap steps.
func TestMidnightWrapForecast(t *testing.T) {
	_, m := testModel(t, 8)
	f, err := New(m, 286, DefaultParams(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	steps, err := f.Forecast(3)
	if err != nil {
		t.Fatal(err)
	}
	wantSlots := []tslot.Slot{287, 0, 1}
	for i, st := range steps {
		if st.Slot != wantSlots[i] {
			t.Errorf("step %d slot = %v, want %v", st.Step, st.Slot, wantSlots[i])
		}
		// No deviation was ever observed, so the mean is exactly the target
		// slot's prior — slot 0's μ, not slot 288's (which doesn't exist).
		if math.Abs(st.Speeds[4]-m.Mu(st.Slot, 4)) > 1e-12 {
			t.Errorf("step %d mean %v, want prior μ[%v]=%v",
				st.Step, st.Speeds[4], st.Slot, m.Mu(st.Slot, 4))
		}
	}
}

func TestForecastVarianceMonotone(t *testing.T) {
	_, m := testModel(t, 10)
	reg := obs.NewRegistry()
	met := obs.NewPipeline(reg, obs.SystemClock()).Temporal
	f, err := New(m, 50, Params{Default: ClassParams{Phi: 0.7, Q: 3}}, nil, Options{Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	// Tight posterior (small variance) then forecast: variance must widen.
	if err := f.Update(map[int]float64{0: 31, 1: 32, 2: 33}, func(int) float64 { return 0.25 }); err != nil {
		t.Fatal(err)
	}
	steps, err := f.Forecast(8)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < f.N(); r++ {
		prev := 0.0
		for _, st := range steps {
			if st.SD[r]+1e-12 < prev {
				t.Fatalf("road %d: SD shrank with horizon: step %d %v < %v", r, st.Step, st.SD[r], prev)
			}
			prev = st.SD[r]
		}
	}
	// Even starting from an inflated prior variance (fresh filter, σ² above
	// the stationary band), the reported fan must not narrow with k.
	g, _ := New(m, 50, Params{Default: ClassParams{Phi: 0.2, Q: 0.1}}, nil, Options{})
	gsteps, err := g.Forecast(6)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < g.N(); r++ {
		prev := 0.0
		for _, st := range gsteps {
			if st.SD[r]+1e-12 < prev {
				t.Fatalf("inflated start road %d: SD shrank at step %d", r, st.Step)
			}
			prev = st.SD[r]
		}
	}
	if met.ForecastDepth.Count() != 1 {
		t.Errorf("forecast depth histogram count = %d, want 1", met.ForecastDepth.Count())
	}
	if got := met.ForecastDepth.Sum(); got != 8*time.Second {
		t.Errorf("forecast depth sum = %v, want 8s (k recorded as seconds)", got)
	}
}

// TestForecastFromReadOnly: ForecastFrom answers from a snapshot — the shared
// filter never moves or re-weights, a repeated identical call reproduces the
// fan exactly (no evidence compounding), and at the current slot with no
// observations it matches Forecast.
func TestForecastFromReadOnly(t *testing.T) {
	_, m := testModel(t, 10)
	f, err := New(m, 10, Params{Default: ClassParams{Phi: 0.8, Q: 2}}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Update(map[int]float64{3: m.Mu(10, 3) + 6}, nil); err != nil {
		t.Fatal(err)
	}
	before := f.Now()
	fusedBefore := f.Fused()

	// At the current slot with no observations the two entry points agree.
	want, err := f.Forecast(4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.ForecastFrom(10, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got[j].Slot != want[j].Slot || got[j].Step != want[j].Step {
			t.Fatalf("step %d header mismatch: %+v vs %+v", j, got[j], want[j])
		}
		for r := 0; r < f.N(); r++ {
			if got[j].Speeds[r] != want[j].Speeds[r] || got[j].SD[r] != want[j].SD[r] {
				t.Fatalf("step %d road %d: ForecastFrom %v/%v != Forecast %v/%v",
					j, r, got[j].Speeds[r], got[j].SD[r], want[j].Speeds[r], want[j].SD[r])
			}
		}
	}

	// Fusing observations into the snapshot must leave the filter untouched,
	// and a second identical call must reproduce the first fan exactly —
	// polling the same slot cannot shrink the reported SDs.
	obsAt12 := map[int]float64{2: m.Mu(12, 2) + 9}
	fan1, err := f.ForecastFrom(12, 3, obsAt12, nil)
	if err != nil {
		t.Fatal(err)
	}
	fan2, err := f.ForecastFrom(12, 3, obsAt12, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range fan1 {
		for r := 0; r < f.N(); r++ {
			if fan1[j].Speeds[r] != fan2[j].Speeds[r] || fan1[j].SD[r] != fan2[j].SD[r] {
				t.Fatalf("repeated poll changed the fan at step %d road %d", j, r)
			}
		}
	}
	if f.Slot() != 10 || f.Fused() != fusedBefore {
		t.Fatalf("ForecastFrom mutated the filter: slot=%v fused=%d", f.Slot(), f.Fused())
	}
	after := f.Now()
	for r := 0; r < f.N(); r++ {
		if after.Speeds[r] != before.Speeds[r] || after.SD[r] != before.SD[r] {
			t.Fatalf("ForecastFrom mutated road %d state", r)
		}
	}
}

// TestForecastFromBaseBehindWraps: a base slot behind the filter is the next
// day's occurrence of that time-of-day — the snapshot wraps forward
// cyclically, by which point the deviation has reverted to the prior, and the
// filter itself stays put.
func TestForecastFromBaseBehindWraps(t *testing.T) {
	_, m := testModel(t, 8)
	f, err := New(m, 10, Params{Default: ClassParams{Phi: 0.8, Q: 2}}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Update(map[int]float64{2: m.Mu(10, 2) + 8}, nil); err != nil {
		t.Fatal(err)
	}
	fan, err := f.ForecastFrom(9, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantSlots := []tslot.Slot{10, 11}
	for j, st := range fan {
		if st.Slot != wantSlots[j] {
			t.Errorf("step %d slot = %v, want %v", j+1, st.Slot, wantSlots[j])
		}
		// 287 sync steps decay φ^287·8 to nothing: the fan is the prior band.
		if math.Abs(st.Speeds[2]-m.Mu(st.Slot, 2)) > 1e-9 {
			t.Errorf("step %d mean %v did not revert to prior %v",
				j+1, st.Speeds[2], m.Mu(st.Slot, 2))
		}
	}
	if f.Slot() != 10 {
		t.Fatalf("backward base moved the filter to %v", f.Slot())
	}
}

// TestUpdateValidatesBeforeApplying: one out-of-range key rejects the whole
// batch — no road is fused and no counter moves, so nondeterministic map
// order can never decide which half of a bad batch landed.
func TestUpdateValidatesBeforeApplying(t *testing.T) {
	_, m := testModel(t, 6)
	met := obs.NewPipeline(obs.NewRegistry(), obs.SystemClock()).Temporal
	f, err := New(m, 10, DefaultParams(), nil, Options{Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	before := f.Now()
	bad := map[int]float64{0: 40, 1: 41, 2: 42, 3: 43, 4: 44, 99: 1}
	if err := f.Update(bad, nil); err == nil {
		t.Fatal("batch with out-of-range road accepted")
	}
	after := f.Now()
	for r := 0; r < f.N(); r++ {
		if after.Speeds[r] != before.Speeds[r] || after.SD[r] != before.SD[r] {
			t.Fatalf("road %d mutated by a rejected update", r)
		}
	}
	if f.Fused() != 0 {
		t.Errorf("fused = %d after rejected update, want 0", f.Fused())
	}
	if met.Updates.Value() != 0 {
		t.Errorf("updates counter = %d after rejected update, want 0", met.Updates.Value())
	}
}

func TestFitAR1RecoversGeneratorCoefficient(t *testing.T) {
	net := network.Synthetic(network.SyntheticOptions{Roads: 40, Seed: 9})
	hist, err := speedgen.Generate(net, speedgen.Default(6, 11))
	if err != nil {
		t.Fatal(err)
	}
	m := rtf.New(net)
	// Fit μ as the cross-day slot mean so deviations are centered.
	for tt := 0; tt < tslot.PerDay; tt++ {
		for r := 0; r < net.N(); r++ {
			var sum float64
			for d := 0; d < hist.NumDays(); d++ {
				sum += hist.At(d, tslot.Slot(tt), r)
			}
			m.SetMu(tslot.Slot(tt), r, sum/float64(hist.NumDays()))
		}
	}
	classes := make([]network.Class, net.N())
	for r := range classes {
		classes[r] = net.Road(r).Class
	}
	params := FitAR1(m, hist, classes)
	if len(params.ByClass) == 0 {
		t.Fatal("FitAR1 produced no per-class parameters")
	}
	for c, cp := range params.ByClass {
		// speedgen's latent AR coefficient is 0.8; the fitted slot-to-slot φ
		// also absorbs the congestion profile, so accept a generous band.
		if cp.Phi < 0.3 || cp.Phi > PhiMax {
			t.Errorf("class %v: φ = %v outside plausible band", c, cp.Phi)
		}
		if cp.Q <= 0 {
			t.Errorf("class %v: non-positive Q %v", c, cp.Q)
		}
	}
}

func TestValidation(t *testing.T) {
	_, m := testModel(t, 4)
	if _, err := New(nil, 0, DefaultParams(), nil, Options{}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := New(m, 288, DefaultParams(), nil, Options{}); err == nil {
		t.Error("invalid start slot accepted")
	}
	f, _ := New(m, 0, DefaultParams(), nil, Options{})
	if _, err := f.Advance(999); err == nil {
		t.Error("invalid advance slot accepted")
	}
	if err := f.Update(map[int]float64{99: 1}, nil); err == nil {
		t.Error("out-of-range observed road accepted")
	}
	if _, err := f.Forecast(0); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := f.ForecastFrom(999, 1, nil, nil); err == nil {
		t.Error("ForecastFrom invalid base slot accepted")
	}
	if _, err := f.ForecastFrom(0, 0, nil, nil); err == nil {
		t.Error("ForecastFrom zero horizon accepted")
	}
	if _, err := f.ForecastFrom(0, 1, map[int]float64{99: 1}, nil); err == nil {
		t.Error("ForecastFrom out-of-range observed road accepted")
	}
}
