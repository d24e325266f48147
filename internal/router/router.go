// Package router plans routes over the traffic network using estimated
// speed fields — the route-planning application the paper lists among RTSE
// consumers (§I). Two planners are provided, both on the one CSR search of
// package graph:
//
//   - Static: shortest travel time under one fixed speed field (e.g. the
//     GSP estimate for the current slot).
//   - PlanETA: shortest travel time when speeds change as the trip
//     progresses — each road is traversed at the speed of the slot the
//     vehicle *enters* it — integrated into an ETA distribution over the
//     field's uncertainty (eta.go). Traversal times are positive, so arrival
//     times are FIFO-consistent and Dijkstra over arrival time is exact.
package router

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/tslot"
)

// Field supplies the (estimated) speed of a road at a slot.
type Field func(t tslot.Slot, road int) float64

// Route is a planned journey.
type Route struct {
	Roads   []int   // traversal order, src first
	Minutes float64 // total travel time
}

// minSpeed floors speeds so travel times stay finite.
const minSpeed = 1.0

// travelMinutes returns the time to traverse road at the given speed.
func travelMinutes(net *network.Network, road int, speed float64) float64 {
	if speed < minSpeed {
		speed = minSpeed
	}
	return 60 * net.Road(road).LengthKM / speed
}

// Static plans the fastest route from src to dst under a fixed speed field
// (speeds indexed by road id). The traversal cost of the first road is not
// counted (the vehicle is already on it), matching common routing
// conventions; dst's traversal is counted.
func Static(net *network.Network, speeds []float64, src, dst int) (Route, error) {
	if len(speeds) != net.N() {
		return Route{}, fmt.Errorf("router: %d speeds for %d roads", len(speeds), net.N())
	}
	if err := checkEndpoints(net, src, dst); err != nil {
		return Route{}, err
	}
	r, ok := plan(net, src, dst, 0, func(_ float64, _, v int32) float64 {
		return travelMinutes(net, int(v), speeds[v])
	})
	if !ok {
		return Route{}, fmt.Errorf("router: no route from %d to %d", src, dst)
	}
	return r, nil
}

// plan runs the CSR search from src with the clock starting at start, where
// cost prices entering road v from a road left at minute at, and returns the
// route to dst (ok=false when dst is unreachable).
func plan(net *network.Network, src, dst int, start float64, cost func(at float64, k, v int32) float64) (Route, bool) {
	arrive, parent := net.CSR().DijkstraFunc(src, dst, start, cost)
	if math.IsInf(arrive[dst], 1) {
		return Route{}, false
	}
	return Route{Roads: graph.PathTo(parent, src, dst), Minutes: arrive[dst] - start}, true
}

// Evaluate replays a route under a (possibly different) field, returning the
// actual travel time — how a plan made on estimates performs against ground
// truth.
func Evaluate(net *network.Network, field Field, departMinute float64, route Route) (float64, error) {
	if field == nil {
		return 0, fmt.Errorf("router: nil field")
	}
	if err := checkDepart(departMinute); err != nil {
		return 0, err
	}
	if len(route.Roads) == 0 {
		return 0, fmt.Errorf("router: empty route")
	}
	now := departMinute
	for i := 1; i < len(route.Roads); i++ {
		prev, cur := route.Roads[i-1], route.Roads[i]
		if !net.Adjacent(prev, cur) {
			return 0, fmt.Errorf("router: route hop %d→%d not adjacent", prev, cur)
		}
		now += travelMinutes(net, cur, field(entrySlot(now), cur))
	}
	return now - departMinute, nil
}

func checkEndpoints(net *network.Network, src, dst int) error {
	if src < 0 || src >= net.N() || dst < 0 || dst >= net.N() {
		return fmt.Errorf("router: endpoints (%d,%d) out of range [0,%d)", src, dst, net.N())
	}
	return nil
}

// checkDepart rejects a departure minute outside [0, 24·60) — NaN and ±Inf
// included — before it can reach tslot.OfMinute.
func checkDepart(departMinute float64) error {
	if !(departMinute >= 0 && departMinute < 24*60) {
		return fmt.Errorf("router: departure minute %v outside the day", departMinute)
	}
	return nil
}

// entrySlot is the slot of a trip-clock minute, wrapping past midnight for
// overnight trips.
func entrySlot(minute float64) tslot.Slot {
	return tslot.OfMinute(int(minute) % (24 * 60))
}
