// Citypulse: a day-long traffic monitoring loop. Every 30 minutes the
// operator re-queries a district's roads under a fixed per-round budget,
// while an incident develops mid-morning. The example shows CrowdRTSE
// tracking accidental variance (the thing periodic prediction cannot see)
// and prints a MAPE comparison against the pure-periodicity baseline
// round by round.
//
//	go run ./examples/citypulse
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
	net := network.Synthetic(network.SyntheticOptions{Roads: 300, Seed: 21, CostMax: 5})

	// Heavier incident load makes the realtime day genuinely deviate from
	// the periodic pattern — the scenario the paper's introduction motivates.
	cfg := speedgen.Default(15, 22)
	cfg.IncidentsPerDay = 8
	hist, err := speedgen.Generate(net, cfg)
	if err != nil {
		log.Fatal(err)
	}
	evalDay := hist.Days - 1
	sys, err := core.Train(net, hist.DayRange(0, hist.Days-1), core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// The monitored district: a connected patch of 40 roads.
	district, _, err := net.ConnectedSubnetwork(120, 40)
	if err != nil {
		log.Fatal(err)
	}
	_ = district
	query := net.Graph().ConnectedSubset(120, 40)

	pool := crowd.PlaceEverywhere(net)
	rng := rand.New(rand.NewSource(23))

	fmt.Println("time   probed  spent  MAPE(CrowdRTSE)  MAPE(periodic)  worst-road APE")
	for minute := 6 * 60; minute <= 21*60; minute += 30 {
		slot := tslot.OfMinute(minute)
		res, err := sys.Query(context.Background(), core.QueryRequest{
			Slot:    slot,
			Roads:   query,
			Budget:  20,
			Theta:   0.92,
			Workers: pool,
			Seed:    rng.Int63(),
			Probe:   crowd.ProbeConfig{NoiseSD: 0.02, Seed: rng.Int63()},
			Truth:   func(r int) float64 { return hist.At(evalDay, slot, r) },
		})
		if err != nil {
			log.Fatal(err)
		}
		est := make([]float64, len(query))
		per := make([]float64, len(query))
		truth := make([]float64, len(query))
		view := sys.Model().At(slot)
		worst := 0.0
		for i, r := range query {
			est[i] = res.QuerySpeeds[r]
			per[i] = view.Mu[r]
			truth[i] = hist.At(evalDay, slot, r)
			if ape := metrics.APE(est[i], truth[i]); ape > worst {
				worst = ape
			}
		}
		fmt.Printf("%s   %4d   %4d        %7.4f         %7.4f         %7.4f\n",
			slot, len(res.Selected.Roads), res.Ledger.Spent,
			metrics.MAPE(est, truth), metrics.MAPE(per, truth), worst)
	}
}
