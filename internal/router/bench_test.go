package router

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/network"
	"repro/internal/tslot"
)

// Benchmarks of the router stage of a route query: PlanETA (time-dependent
// search plus ETA integration) between random road pairs over a
// deterministic, slowly varying speed field, on the paper's 607-road network
// and a 100k-road metro. Run with -benchmem.

// metroNet is generated once per process: the benchmark function runs once
// per b.N probe, and regenerating 100k roads for each would only add set-up
// time.
var metroNet = sync.OnceValue(func() *network.Network {
	return network.Metro(network.MetroOptions{Roads: 100_000, Seed: 1})
})

// benchField is a synthetic posterior: means 15–64 km/h varying by road and
// slot, SDs 1–5 km/h, served at every slot.
func benchField(t tslot.Slot, road int) (SpeedDist, bool) {
	return SpeedDist{Mean: 15 + float64((road*13+int(t)*7)%50), SD: 1 + float64(road%5)}, true
}

func benchPlanETA(b *testing.B, net *network.Network) {
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int, 64)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(net.N()), rng.Intn(net.N())}
	}
	net.CSR() // pack the topology outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := PlanETA(net, benchField, 8*60, p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanETA607(b *testing.B) {
	benchPlanETA(b, network.Synthetic(network.SyntheticOptions{Roads: 607, Seed: 1}))
}

func BenchmarkPlanETAMetro100k(b *testing.B) { benchPlanETA(b, metroNet()) }
