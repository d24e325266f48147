package sim_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

// ExampleRunQuery trains a system on six days of a synthetic city's records,
// then asks for four roads' speeds at 08:30 with a budget of 6 answers. One
// worker drives every road and answers from the held-out seventh day: the
// roads OCS crowdsources are observed, and propagation fuses the others from
// them.
func ExampleRunQuery() {
	net := network.Synthetic(network.SyntheticOptions{Roads: 40, Seed: 3})
	hist, err := speedgen.Generate(net, speedgen.Default(7, 4))
	if err != nil {
		panic(err)
	}
	sys, err := core.Train(net, hist.DayRange(0, 6), core.DefaultConfig())
	if err != nil {
		panic(err)
	}
	slot := tslot.OfMinute(8*60 + 30)
	res, err := sim.RunQuery(context.Background(), sys.Pin(nil), net, sim.QueryRequest{
		Slot: slot, Roads: []int{4, 17, 30, 36}, Budget: 6, Theta: 0.92,
		Workers: crowd.PlaceEverywhere(net),
		Truth:   func(r int) float64 { return hist.At(6, slot, r) },
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("crowdsourced %v, spent %d/%d\n", res.Selected.Roads, res.Ledger.Spent, res.Ledger.Budget)
	for _, r := range []int{4, 17, 30, 36} {
		fmt.Printf("road %d: %.1f km/h, %s (truth %.1f)\n", r, res.QuerySpeeds[r], res.QueryProvenance[r], hist.At(6, slot, r))
	}
	// Output:
	// crowdsourced [17 21 36], spent 6/6
	// road 4: 32.5 km/h, fused (truth 28.9)
	// road 17: 20.5 km/h, observed (truth 20.5)
	// road 30: 20.1 km/h, fused (truth 24.4)
	// road 36: 31.0 km/h, observed (truth 31.0)
}
