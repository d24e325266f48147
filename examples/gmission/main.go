// gMission: the paper's second dataset scenario (§VII-A, Fig. 6). The
// queried roads form a mutually connected subcomponent of the network, and
// 30 workers travel along those roads, so R^w ⊂ R^q. Budgets are small
// (10–50) and costs drawn from [1,10]. The example sweeps the budget and
// prints MAPE/FER for CrowdRTSE with Hybrid-Greedy selection.
//
//	go run ./examples/gmission
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

func main() {
	net := network.Synthetic(network.SyntheticOptions{Roads: 300, Seed: 41, CostMax: 10})
	hist, err := speedgen.Generate(net, speedgen.Default(15, 42))
	if err != nil {
		log.Fatal(err)
	}
	evalDay := hist.Days - 1
	sys, err := core.Train(net, hist.DayRange(0, hist.Days-1), core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// 50 connected queried roads; 30 workers distributed over them.
	rng := rand.New(rand.NewSource(43))
	pool, query, err := crowd.PlaceSubcomponent(net, 10, 50, 30, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gMission scenario: |R^q|=%d connected roads, %d workers on %d of them\n\n",
		len(query), pool.Size(), len(pool.Roads()))

	slot := tslot.OfMinute(9 * 60)
	truth := func(r int) float64 { return hist.At(evalDay, slot, r) }

	fmt.Printf("%6s %8s %8s %8s\n", "K", "probed", "MAPE", "FER")
	for _, k := range []int{10, 20, 30, 40, 50} {
		res, err := sys.Query(context.Background(), core.QueryRequest{
			Slot: slot, Roads: query, Budget: k, Theta: 0.92,
			Workers: pool, Seed: int64(k),
			Probe: crowd.ProbeConfig{NoiseSD: 0.02, Seed: int64(k)},
			Truth: truth,
		})
		if err != nil {
			log.Fatal(err)
		}
		est := make([]float64, len(query))
		tv := make([]float64, len(query))
		for i, r := range query {
			est[i] = res.QuerySpeeds[r]
			tv[i] = truth(r)
		}
		fmt.Printf("%6d %8d %8.4f %8.4f\n",
			k, len(res.Selected.Roads), metrics.MAPE(est, tv), metrics.FER(est, tv, metrics.DefaultPhi))
	}
}
