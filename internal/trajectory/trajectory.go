// Package trajectory simulates vehicle trips over the road network and
// extracts speed records from them. The paper names trajectories, alongside
// realtime speed feeds, as the offline data RTSE systems train on (§I), and
// its crowd workers are phones deriving travel speed from localization —
// i.e. from trajectories. This package provides that substrate:
//
//   - Trip generation: origin/destination pairs routed over the network,
//     traversing each road at its ground-truth speed for the current slot.
//   - GPS sampling: noisy fixed-interval position/speed fixes along a trip.
//   - Speed extraction: per-(road, slot) speed observations recovered from
//     the fixes — the sparse record stream that rtf.FitMomentsSparse
//     consumes.
package trajectory

import (
	"fmt"
	"math/rand"

	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/tslot"
)

// SpeedField supplies the ground-truth speed of a road at a slot —
// *speedgen.History curried on a day, or any synthetic field.
type SpeedField func(t tslot.Slot, road int) float64

// Trip is one vehicle journey: the ordered roads traversed with entry times.
type Trip struct {
	Roads []int     // traversal order
	Entry []float64 // entry time into each road, minutes since midnight
	End   float64   // exit time of the last road
}

// Duration returns the trip's total travel time in minutes.
func (t *Trip) Duration() float64 {
	if len(t.Entry) == 0 {
		return 0
	}
	return t.End - t.Entry[0]
}

// Config controls trip generation and GPS sampling.
type Config struct {
	// Trips is the number of journeys to simulate.
	Trips int
	// StartMinute draws each trip's departure uniformly from
	// [StartMinute, EndMinute) (minutes since midnight).
	StartMinute, EndMinute int
	// GPSIntervalSec is the spacing of GPS fixes along a trip.
	GPSIntervalSec float64
	// SpeedNoiseSD is the relative noise of a fix's speed measurement.
	SpeedNoiseSD float64
	Seed         int64
}

// DefaultConfig is a day of commuter trips with 15-second GPS fixes.
func DefaultConfig(trips int, seed int64) Config {
	return Config{
		Trips:          trips,
		StartMinute:    6 * 60,
		EndMinute:      22 * 60,
		GPSIntervalSec: 15,
		SpeedNoiseSD:   0.03,
		Seed:           seed,
	}
}

// Fix is one GPS observation: the map-matched road, the time, and the
// measured speed. (Positions are abstracted away — the simulator emits
// already-map-matched fixes, the usual preprocessing output.)
type Fix struct {
	Road   int
	Minute float64 // time of day, minutes
	Speed  float64 // measured speed, km/h
}

// Simulate generates trips over the network under the speed field and
// returns the trips plus all GPS fixes.
func Simulate(net *network.Network, field SpeedField, cfg Config) ([]Trip, []Fix, error) {
	if field == nil {
		return nil, nil, fmt.Errorf("trajectory: nil speed field")
	}
	if cfg.Trips <= 0 {
		return nil, nil, fmt.Errorf("trajectory: Trips must be positive, got %d", cfg.Trips)
	}
	if cfg.StartMinute < 0 || cfg.EndMinute > 24*60 || cfg.StartMinute >= cfg.EndMinute {
		return nil, nil, fmt.Errorf("trajectory: invalid departure window [%d,%d)", cfg.StartMinute, cfg.EndMinute)
	}
	if cfg.GPSIntervalSec <= 0 {
		return nil, nil, fmt.Errorf("trajectory: GPS interval must be positive")
	}
	if cfg.SpeedNoiseSD < 0 {
		return nil, nil, fmt.Errorf("trajectory: negative speed noise")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	speeds := make([]float64, net.N())
	trips := make([]Trip, 0, cfg.Trips)
	var fixes []Fix
	for k := 0; k < cfg.Trips; k++ {
		src := rng.Intn(net.N())
		dst := rng.Intn(net.N())
		if src == dst {
			dst = (dst + 1) % net.N()
		}
		depart := float64(cfg.StartMinute) + rng.Float64()*float64(cfg.EndMinute-cfg.StartMinute)
		// Route on the travel times of the departure slot's speeds.
		slot0 := tslot.OfMinute(int(depart))
		for r := range speeds {
			speeds[r] = field(slot0, r)
		}
		route, err := router.Static(net, speeds, src, dst)
		if err != nil {
			continue // disconnected pair; skip
		}
		trip := drive(net, field, route.Roads, depart)
		fixes = append(fixes, sampleGPS(rng, net, field, &trip, cfg)...)
		trips = append(trips, trip)
	}
	return trips, fixes, nil
}

// drive traverses the path starting at depart, entering each road at the
// time the previous one ends, at the ground-truth speed of the entry slot.
// Trips crossing midnight are truncated at 23:59.
func drive(net *network.Network, field SpeedField, path []int, depart float64) Trip {
	trip := Trip{Roads: path, Entry: make([]float64, len(path))}
	now := depart
	for i, road := range path {
		trip.Entry[i] = now
		if now >= 24*60-1 {
			trip.Roads = trip.Roads[:i+1]
			trip.Entry = trip.Entry[:i+1]
			break
		}
		slot := tslot.OfMinute(int(now))
		s := field(slot, road)
		if s < 1 {
			s = 1
		}
		now += 60 * net.Road(road).LengthKM / s
	}
	if now > 24*60-1 {
		now = 24*60 - 1
	}
	trip.End = now
	return trip
}

// sampleGPS emits fixes every GPSIntervalSec along the trip: the road the
// vehicle is on at that instant and its (noisy) current speed.
func sampleGPS(rng *rand.Rand, net *network.Network, field SpeedField, trip *Trip, cfg Config) []Fix {
	var fixes []Fix
	step := cfg.GPSIntervalSec / 60
	for tm := trip.Entry[0]; tm < trip.End; tm += step {
		road := roadAt(trip, tm)
		if road < 0 {
			continue
		}
		slot := tslot.OfMinute(int(tm))
		truth := field(slot, road)
		v := truth * (1 + cfg.SpeedNoiseSD*rng.NormFloat64())
		if v < 0 {
			v = 0
		}
		fixes = append(fixes, Fix{Road: road, Minute: tm, Speed: v})
	}
	return fixes
}

// roadAt returns the road the trip occupies at time tm (-1 if outside).
func roadAt(trip *Trip, tm float64) int {
	if tm < trip.Entry[0] || tm >= trip.End {
		return -1
	}
	// Linear scan is fine: trips are tens of roads.
	for i := len(trip.Roads) - 1; i >= 0; i-- {
		if tm >= trip.Entry[i] {
			return trip.Roads[i]
		}
	}
	return -1
}

// Record is one aggregated speed observation extracted from fixes.
type Record struct {
	Road  int
	Slot  tslot.Slot
	Speed float64 // mean of the fixes' speeds in this (road, slot) cell
	Fixes int     // how many fixes the mean is based on
}

// ExtractRecords groups the fixes by (road, slot) and averages them — the
// trajectory-to-speed-record conversion that turns raw traces into the
// sparse training data rtf.FitMomentsSparse consumes.
func ExtractRecords(fixes []Fix) []Record {
	type key struct {
		road int
		slot tslot.Slot
	}
	sums := make(map[key]*Record)
	for _, f := range fixes {
		k := key{f.Road, tslot.OfMinute(int(f.Minute))}
		r := sums[k]
		if r == nil {
			r = &Record{Road: f.Road, Slot: k.slot}
			sums[k] = r
		}
		r.Speed += f.Speed
		r.Fixes++
	}
	out := make([]Record, 0, len(sums))
	for _, r := range sums {
		r.Speed /= float64(r.Fixes)
		out = append(out, *r)
	}
	return out
}

// Coverage reports the fraction of (road, slot) cells of a full day that
// the records cover, a sparsity diagnostic.
func Coverage(records []Record, nRoads int) float64 {
	if nRoads <= 0 {
		return 0
	}
	seen := make(map[[2]int]bool, len(records))
	for _, r := range records {
		seen[[2]int{r.Road, int(r.Slot)}] = true
	}
	return float64(len(seen)) / float64(nRoads*tslot.PerDay)
}
