// Route-level ETA over an uncertainty-carrying speed field (PR 10). Static
// and Evaluate in router.go consume point estimates — one speed per road, or
// a bare Field per (slot, road). The serving stack now produces calibrated per-road posteriors
// (mean, SD, provenance) that widen across the forecast fan, so a route's
// travel time is itself a distribution: each segment's traversal time
// τ_r = 60·L_r/v_r inherits the speed uncertainty through the delta method,
//
//	Var(τ_r) ≈ (dτ/dv)²·σ_r² = (60·L_r/v_r²)²·σ_r²,
//
// and the ETA sums segment means and variances (per-road posteriors are
// conditionally independent given the field). The same sensitivity
// dτ/dv = −60·L/v² drives the route-aware OCS objective: probing a road
// shrinks the ETA variance in proportion to (60·L/v²)²·σ², so long, slow,
// uncertain segments attract the budget.
package router

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/network"
	"repro/internal/tslot"
)

// SpeedDist is one road's speed posterior at a slot: the mean estimate, its
// (calibrated) SD, and where the mass came from ("observed", "fused",
// "prior", "forecast").
type SpeedDist struct {
	Mean       float64
	SD         float64
	Provenance string
}

// DistField supplies the uncertainty-carrying speed field. ok=false means
// the slot is beyond the horizon the field can serve (e.g. past the temporal
// filter's forecast fan); planners treat such edges as impassable and
// integration fails with ErrHorizonExceeded.
type DistField func(t tslot.Slot, road int) (SpeedDist, bool)

// ErrHorizonExceeded reports that a trip crosses more slot boundaries than
// the field can serve. Check with errors.Is.
var ErrHorizonExceeded = errors.New("router: trip exceeds the served forecast horizon")

// SegmentETA is one road's contribution to a route's travel-time
// distribution.
type SegmentETA struct {
	Road        int
	Slot        tslot.Slot // slot whose field priced the traversal (entry slot)
	EnterMinute float64    // minute-of-trip clock at entry (departMinute-based)
	Speed       float64    // posterior mean speed, km/h
	SpeedSD     float64    // posterior speed SD, km/h
	Minutes     float64    // traversal time at the mean speed
	Variance    float64    // delta-method traversal-time variance, minutes²
	Provenance  string
}

// ETA is a route's travel-time distribution.
type ETA struct {
	Route        Route
	DepartMinute float64
	Minutes      float64 // ETA mean: Σ segment means
	SD           float64 // ETA SD: sqrt(Σ segment variances)
	Segments     []SegmentETA
	SlotsCrossed int // slot boundaries crossed: 0 when the trip completes within the departure slot
}

// PlanETA plans the fastest src→dst route departing at departMinute over the
// field's mean speeds (time-dependent Dijkstra: first road free, each road
// priced at its entry slot) and integrates the posterior along it. Edges
// whose entry slot the field cannot serve are impassable; if that pruning is
// what disconnected dst, the error is ErrHorizonExceeded rather than a plain
// no-route.
func PlanETA(net *network.Network, field DistField, departMinute float64, src, dst int) (ETA, error) {
	if field == nil {
		return ETA{}, fmt.Errorf("router: nil field")
	}
	if err := checkDepart(departMinute); err != nil {
		return ETA{}, err
	}
	if err := checkEndpoints(net, src, dst); err != nil {
		return ETA{}, err
	}
	overflowed := false
	route, ok := plan(net, src, dst, departMinute, func(at float64, _, v int32) float64 {
		d, ok := field(entrySlot(at), int(v))
		if !ok {
			// Beyond the served horizon: the edge is impassable from
			// here, but remember why in case dst ends up unreachable.
			overflowed = true
			return math.Inf(1)
		}
		return travelMinutes(net, int(v), d.Mean)
	})
	if !ok {
		if overflowed {
			return ETA{}, fmt.Errorf("router: no route from %d to %d within the horizon: %w", src, dst, ErrHorizonExceeded)
		}
		return ETA{}, fmt.Errorf("router: no route from %d to %d", src, dst)
	}
	return IntegrateETA(net, field, departMinute, route)
}

// IntegrateETA walks an existing route under the field and returns its ETA
// distribution. The first road's traversal is not counted (the vehicle is
// already on it), matching Static/PlanETA/Evaluate; each remaining
// road is priced at its entry slot, so the integration advances through the
// forecast fan as the trip crosses slot boundaries.
func IntegrateETA(net *network.Network, field DistField, departMinute float64, route Route) (ETA, error) {
	if field == nil {
		return ETA{}, fmt.Errorf("router: nil field")
	}
	if err := checkDepart(departMinute); err != nil {
		return ETA{}, err
	}
	if len(route.Roads) == 0 {
		return ETA{}, fmt.Errorf("router: empty route")
	}
	eta := ETA{
		Route:        route,
		DepartMinute: departMinute,
		Segments:     make([]SegmentETA, 0, len(route.Roads)-1),
	}
	now := departMinute
	slots := map[tslot.Slot]struct{}{entrySlot(departMinute): {}}
	var totalVar float64
	for i := 1; i < len(route.Roads); i++ {
		prev, cur := route.Roads[i-1], route.Roads[i]
		if !net.Adjacent(prev, cur) {
			return ETA{}, fmt.Errorf("router: route hop %d→%d not adjacent", prev, cur)
		}
		slot := entrySlot(now)
		slots[slot] = struct{}{}
		d, ok := field(slot, cur)
		if !ok {
			return ETA{}, fmt.Errorf("router: segment %d (road %d) enters slot %d: %w", i, cur, slot, ErrHorizonExceeded)
		}
		v := d.Mean
		if v < minSpeed {
			v = minSpeed
		}
		length := net.Road(cur).LengthKM
		minutes := 60 * length / v
		sens := 60 * length / (v * v) // |dτ/dv| at the mean
		segVar := sens * sens * d.SD * d.SD
		eta.Segments = append(eta.Segments, SegmentETA{
			Road:        cur,
			Slot:        slot,
			EnterMinute: now,
			Speed:       d.Mean,
			SpeedSD:     d.SD,
			Minutes:     minutes,
			Variance:    segVar,
			Provenance:  d.Provenance,
		})
		totalVar += segVar
		now += minutes
	}
	eta.Minutes = now - departMinute
	eta.SD = math.Sqrt(totalVar)
	eta.SlotsCrossed = len(slots) - 1
	return eta, nil
}

// SensitivityWeights converts an ETA's segments into the per-road weight
// vector of ocs.ObjRouteVar: weights[r] = (60·L_r/v_r²)², the squared
// travel-time sensitivity, so weight·σ² is the segment's contribution to the
// ETA variance. Roads off the route (including the uncounted first road)
// stay at 0. n is the network size (the weight vector is road-id indexed).
func (e ETA) SensitivityWeights(n int) []float64 {
	w := make([]float64, n)
	for _, seg := range e.Segments {
		v := seg.Speed
		if v < minSpeed {
			v = minSpeed
		}
		sens := seg.Minutes / v // 60·L/v² = (60·L/v)/v
		w[seg.Road] += sens * sens
	}
	return w
}
