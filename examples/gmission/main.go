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
	"io"
	"log"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	net := network.Synthetic(network.SyntheticOptions{Roads: 300, Seed: 41, CostMax: 10})
	hist, err := speedgen.Generate(net, speedgen.Default(15, 42))
	if err != nil {
		return err
	}
	evalDay := hist.Days - 1
	sys, err := core.Train(net, hist.DayRange(0, hist.Days-1), core.DefaultConfig())
	if err != nil {
		return err
	}

	// 50 connected queried roads; 30 workers distributed over them.
	rng := rand.New(rand.NewSource(43))
	pool, query, err := crowd.PlaceSubcomponent(net, 10, 50, 30, rng)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "gMission scenario: |R^q|=%d connected roads, %d workers on %d of them\n\n",
		len(query), pool.Size(), len(pool.Roads()))

	slot := tslot.OfMinute(9 * 60)
	truth := func(r int) float64 { return hist.At(evalDay, slot, r) }

	fmt.Fprintf(w, "%6s %8s %8s %8s\n", "K", "probed", "MAPE", "FER")
	for _, k := range []int{10, 20, 30, 40, 50} {
		res, err := sim.RunQuery(context.Background(), sys.Pin(nil), net, sim.QueryRequest{
			Slot: slot, Roads: query, Budget: k, Theta: 0.92,
			Workers: pool, Seed: int64(k),
			Probe: crowd.ProbeConfig{NoiseSD: 0.02, Seed: int64(k)},
			Truth: truth,
		})
		if err != nil {
			return err
		}
		est := make([]float64, len(query))
		tv := make([]float64, len(query))
		for i, r := range query {
			est[i] = res.QuerySpeeds[r]
			tv[i] = truth(r)
		}
		fmt.Fprintf(w, "%6d %8d %8.4f %8.4f\n",
			k, len(res.Selected.Roads), metrics.MAPE(est, tv), metrics.FER(est, tv, metrics.DefaultPhi))
	}
	return nil
}
