package router

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/tslot"
)

// lineNet builds a path network 0-1-...-n-1 with 1 km segments.
func lineNet(tb testing.TB, n int) *network.Network {
	tb.Helper()
	roads := make([]network.Road, n)
	for i := range roads {
		roads[i].LengthKM = 1
	}
	net, err := network.New(graph.Path(n), roads)
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

// diamondNet builds 0-{1,2}-3 with given lengths.
func diamondNet(tb testing.TB, lengths [4]float64) *network.Network {
	tb.Helper()
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			tb.Fatal(err)
		}
	}
	roads := make([]network.Road, 4)
	for i := range roads {
		roads[i].LengthKM = lengths[i]
	}
	net, err := network.New(g, roads)
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

func constField(speed float64) Field {
	return func(tslot.Slot, int) float64 { return speed }
}

// lift turns a point-estimate Field into a zero-SD DistField with no horizon
// limit, so PlanETA plans on exactly the field's speeds. A nil Field lifts to
// a nil DistField.
func lift(f Field) DistField {
	if f == nil {
		return nil
	}
	return func(t tslot.Slot, road int) (SpeedDist, bool) {
		return SpeedDist{Mean: f(t, road)}, true
	}
}

func TestStaticKnownRoute(t *testing.T) {
	net := lineNet(t, 4)
	speeds := []float64{60, 60, 60, 60} // 1 km at 60 km/h = 1 minute/road
	r, err := Static(net, speeds, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Roads) != 4 || r.Roads[0] != 0 || r.Roads[3] != 3 {
		t.Fatalf("route = %v", r.Roads)
	}
	// roads 1,2,3 traversed (src not counted): 3 minutes
	if math.Abs(r.Minutes-3) > 1e-9 {
		t.Errorf("minutes = %v, want 3", r.Minutes)
	}
}

func TestStaticPrefersFasterBranch(t *testing.T) {
	net := diamondNet(t, [4]float64{1, 1, 1, 1})
	speeds := []float64{50, 10, 60, 50} // branch via 2 much faster
	r, err := Static(net, speeds, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Roads) != 3 || r.Roads[1] != 2 {
		t.Fatalf("route = %v, want via 2", r.Roads)
	}
}

func TestStaticValidation(t *testing.T) {
	net := lineNet(t, 3)
	if _, err := Static(net, []float64{1}, 0, 2); err == nil {
		t.Error("wrong speeds length accepted")
	}
	if _, err := Static(net, []float64{1, 1, 1}, -1, 2); err == nil {
		t.Error("bad src accepted")
	}
	// unreachable
	g := graph.New(2)
	roads := make([]network.Road, 2)
	net2, err := network.New(g, roads)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Static(net2, []float64{50, 50}, 0, 1); err == nil {
		t.Error("unreachable route accepted")
	}
}

func TestStaticFloorsZeroSpeeds(t *testing.T) {
	net := lineNet(t, 3)
	r, err := Static(net, []float64{0, 0, 0}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(r.Minutes, 1) || math.IsNaN(r.Minutes) {
		t.Errorf("minutes = %v", r.Minutes)
	}
}

func TestTimeDependentMatchesStaticOnConstantField(t *testing.T) {
	net := diamondNet(t, [4]float64{1, 2, 1.5, 1})
	speeds := []float64{40, 30, 50, 45}
	field := func(_ tslot.Slot, road int) float64 { return speeds[road] }
	st, err := Static(net, speeds, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	eta, err := PlanETA(net, lift(field), 600, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	td := eta.Route
	if math.Abs(st.Minutes-td.Minutes) > 1e-9 {
		t.Errorf("static %v vs time-dependent %v", st.Minutes, td.Minutes)
	}
	if len(st.Roads) != len(td.Roads) {
		t.Errorf("routes differ: %v vs %v", st.Roads, td.Roads)
	}
}

func TestTimeDependentDetoursAroundUpcomingJam(t *testing.T) {
	// Diamond with a slightly longer detour (via 2). The direct branch
	// (via 1) jams shortly after departure: a time-aware planner that
	// enters road 1 at ~minute 602 sees the jam and detours.
	net := diamondNet(t, [4]float64{1, 5, 5.5, 1})
	jamStart := tslot.OfMinute(601)
	field := func(s tslot.Slot, road int) float64 {
		if road == 1 && s >= jamStart {
			return 5 // crawling
		}
		return 60
	}
	eta, err := PlanETA(net, lift(field), 600, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r := eta.Route.Roads; len(r) != 3 || r[1] != 2 {
		t.Fatalf("route = %v, want detour via 2", r)
	}
	// Departing well before the jam, the direct branch wins.
	early, err := PlanETA(net, lift(field), 300, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if early.Route.Roads[1] != 1 {
		t.Fatalf("early route = %v, want direct via 1", early.Route.Roads)
	}
}

func TestTimeDependentValidation(t *testing.T) {
	net := lineNet(t, 3)
	if _, err := PlanETA(net, lift(nil), 0, 0, 2); err == nil {
		t.Error("nil field accepted")
	}
	if _, err := PlanETA(net, lift(constField(50)), -5, 0, 2); err == nil {
		t.Error("negative departure accepted")
	}
	if _, err := PlanETA(net, lift(constField(50)), 1e6, 0, 2); err == nil {
		t.Error("departure past midnight accepted")
	}
	if _, err := PlanETA(net, lift(constField(50)), 0, 0, 99); err == nil {
		t.Error("bad dst accepted")
	}
}

func TestEvaluate(t *testing.T) {
	net := lineNet(t, 4)
	field := constField(60)
	route := Route{Roads: []int{0, 1, 2, 3}}
	mins, err := Evaluate(net, field, 600, route)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mins-3) > 1e-9 {
		t.Errorf("Evaluate = %v, want 3", mins)
	}
	if _, err := Evaluate(net, nil, 0, route); err == nil {
		t.Error("nil field accepted")
	}
	if _, err := Evaluate(net, field, 0, Route{}); err == nil {
		t.Error("empty route accepted")
	}
	bad := Route{Roads: []int{0, 2}}
	if _, err := Evaluate(net, field, 0, bad); err == nil {
		t.Error("non-adjacent route accepted")
	}
}

// TestDepartMinuteValidation: a departure minute outside [0, 24·60) — NaN and
// +Inf included — is an error from every entry that takes one, never a panic
// in the slot lookup.
func TestDepartMinuteValidation(t *testing.T) {
	net := lineNet(t, 4)
	route := Route{Roads: []int{0, 1, 2, 3}}
	entries := map[string]func(depart float64) error{
		"Evaluate": func(depart float64) error {
			_, err := Evaluate(net, constField(60), depart, route)
			return err
		},
		"IntegrateETA": func(depart float64) error {
			_, err := IntegrateETA(net, constDist(60, 6), depart, route)
			return err
		},
		"PlanETA": func(depart float64) error {
			_, err := PlanETA(net, constDist(60, 6), depart, 0, 3)
			return err
		},
	}
	for name, call := range entries {
		for _, depart := range []float64{-5, math.NaN(), 24 * 60, math.Inf(1)} {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s(depart=%v) panicked: %v", name, depart, p)
					}
				}()
				if err := call(depart); err == nil {
					t.Errorf("%s(depart=%v) accepted", name, depart)
				}
			}()
		}
	}
}

// Property: the time-dependent plan is never slower (under its own field)
// than replaying the static plan computed from the departure slot's speeds.
func TestTimeDependentDominatesStaticReplay(t *testing.T) {
	net := network.Synthetic(network.SyntheticOptions{Roads: 60, Seed: 9})
	field := func(s tslot.Slot, road int) float64 {
		// Deterministic time-varying speeds.
		return 20 + float64((road*13+int(s)*7)%40)
	}
	for _, pair := range [][2]int{{0, 59}, {5, 40}, {12, 33}} {
		depart := 480.0
		slot := tslot.OfMinute(int(depart))
		speeds := make([]float64, net.N())
		for r := range speeds {
			speeds[r] = field(slot, r)
		}
		st, err := Static(net, speeds, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		stActual, err := Evaluate(net, field, depart, st)
		if err != nil {
			t.Fatal(err)
		}
		eta, err := PlanETA(net, lift(field), depart, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if td := eta.Route.Minutes; td > stActual+1e-9 {
			t.Errorf("pair %v: time-dependent %v slower than static replay %v",
				pair, td, stActual)
		}
	}
}
