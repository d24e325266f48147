package router

import (
	"errors"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/tslot"
)

// constDist is a DistField with one mean/SD everywhere and no horizon limit.
func constDist(mean, sd float64) DistField {
	return func(tslot.Slot, int) (SpeedDist, bool) {
		return SpeedDist{Mean: mean, SD: sd, Provenance: "fused"}, true
	}
}

func TestPlanETAKnownDistribution(t *testing.T) {
	net := lineNet(t, 4)
	// 1 km at 60 km/h = 1 minute per road; roads 1,2,3 traversed.
	eta, err := PlanETA(net, constDist(60, 6), 600, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eta.Minutes-3) > 1e-9 {
		t.Errorf("minutes = %v, want 3", eta.Minutes)
	}
	if len(eta.Segments) != 3 {
		t.Fatalf("segments = %d, want 3", len(eta.Segments))
	}
	// Delta method: per segment Var = (60·L/v²)²·σ² = (60/3600)²·36 = 0.01·36.
	segVar := math.Pow(60.0*1/(60.0*60.0), 2) * 36
	wantSD := math.Sqrt(3 * segVar)
	if math.Abs(eta.SD-wantSD) > 1e-9 {
		t.Errorf("SD = %v, want %v", eta.SD, wantSD)
	}
	for _, seg := range eta.Segments {
		if seg.Provenance != "fused" {
			t.Errorf("segment %d provenance %q", seg.Road, seg.Provenance)
		}
	}
	if eta.SlotsCrossed != 0 {
		t.Errorf("3-minute trip crossed %d slots", eta.SlotsCrossed)
	}
}

func TestPlanETASlotCrossing(t *testing.T) {
	// 12 roads of 1 km at 12 km/h = 5 minutes each; a slot is 5 minutes, so
	// every traversed segment enters a later slot than the previous one.
	net := lineNet(t, 12)
	slotsSeen := map[tslot.Slot]bool{}
	field := func(s tslot.Slot, _ int) (SpeedDist, bool) {
		slotsSeen[s] = true
		return SpeedDist{Mean: 12, SD: 1}, true
	}
	depart := float64(tslot.Slot(100).StartMinute())
	eta, err := PlanETA(net, field, depart, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eta.Minutes-55) > 1e-9 { // 11 segments × 5 min
		t.Errorf("minutes = %v, want 55", eta.Minutes)
	}
	// Segments enter slots 100..110: ten boundary crossings.
	if eta.SlotsCrossed != 10 {
		t.Errorf("SlotsCrossed = %d, want 10", eta.SlotsCrossed)
	}
	for i, seg := range eta.Segments {
		want := tslot.Slot(100 + i)
		if seg.Slot != want {
			t.Errorf("segment %d priced at slot %d, want %d", i, seg.Slot, want)
		}
	}
}

func TestPlanETAHorizonExceeded(t *testing.T) {
	// Same 5-minute-per-segment line, but the field only serves 2 slots past
	// the base: a trip needing 11 slots must fail with ErrHorizonExceeded.
	net := lineNet(t, 12)
	base := tslot.Slot(100)
	field := func(s tslot.Slot, _ int) (SpeedDist, bool) {
		if int(s)-int(base) > 2 {
			return SpeedDist{}, false
		}
		return SpeedDist{Mean: 12, SD: 1}, true
	}
	_, err := PlanETA(net, field, float64(base.StartMinute()), 0, 11)
	if err == nil {
		t.Fatal("trip past the horizon planned successfully")
	}
	if !errors.Is(err, ErrHorizonExceeded) {
		t.Errorf("err = %v, want ErrHorizonExceeded", err)
	}
}

func TestPlanETADisconnected(t *testing.T) {
	g := graph.New(2)
	net, err := network.New(g, make([]network.Road, 2))
	if err != nil {
		t.Fatal(err)
	}
	_, err = PlanETA(net, constDist(50, 5), 0, 0, 1)
	if err == nil {
		t.Fatal("disconnected pair planned successfully")
	}
	if errors.Is(err, ErrHorizonExceeded) {
		t.Error("plain disconnection misreported as a horizon overflow")
	}
}

func TestIntegrateETARejectsNonAdjacent(t *testing.T) {
	net := lineNet(t, 4)
	_, err := IntegrateETA(net, constDist(50, 5), 0, Route{Roads: []int{0, 2}})
	if err == nil {
		t.Error("non-adjacent hop accepted")
	}
}

func TestSensitivityWeights(t *testing.T) {
	net := lineNet(t, 4)
	eta, err := PlanETA(net, constDist(60, 6), 600, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := eta.SensitivityWeights(net.N())
	if len(w) != net.N() {
		t.Fatalf("weights len = %d", len(w))
	}
	if w[0] != 0 {
		t.Errorf("untraversed src road has weight %v", w[0])
	}
	// Each traversed segment: (minutes/v)² = (1/60)².
	want := math.Pow(1.0/60.0, 2)
	for _, road := range []int{1, 2, 3} {
		if math.Abs(w[road]-want) > 1e-12 {
			t.Errorf("w[%d] = %v, want %v", road, w[road], want)
		}
	}
	// The delta-method identity: Σ w_r·σ_r² over the path = Var(ETA).
	var tot float64
	for _, road := range []int{1, 2, 3} {
		tot += w[road] * 36
	}
	if math.Abs(tot-eta.SD*eta.SD) > 1e-9 {
		t.Errorf("Σ w·σ² = %v, Var(ETA) = %v", tot, eta.SD*eta.SD)
	}
}
