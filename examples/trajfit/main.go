// Trajfit: train the RTF from vehicle trajectories instead of a dense speed
// feed. A fleet of simulated trips produces map-matched GPS fixes; the fixes
// are reduced to sparse (road, slot) speed records; FitMomentsSparse refines
// a prior model on the covered cells; and the refined model answers a query.
// This is the "trajectories" data path the paper's introduction names
// alongside realtime speed records.
//
//	go run ./examples/trajfit
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/rtf"
	"repro/internal/speedgen"
	"repro/internal/trajectory"
	"repro/internal/tslot"
)

func main() {
	net := network.Synthetic(network.SyntheticOptions{Roads: 120, Seed: 61})
	hist, err := speedgen.Generate(net, speedgen.Default(10, 62))
	if err != nil {
		log.Fatal(err)
	}
	evalDay := hist.Days - 1

	// 1. Simulate a fleet over each training day and extract sparse records.
	var samples []rtf.SparseSample
	totalFixes := 0
	for day := 0; day < hist.Days-1; day++ {
		d := day
		field := func(t tslot.Slot, road int) float64 { return hist.At(d, t, road) }
		_, fixes, err := trajectory.Simulate(net, field, trajectory.DefaultConfig(400, int64(63+day)))
		if err != nil {
			log.Fatal(err)
		}
		totalFixes += len(fixes)
		for _, rec := range trajectory.ExtractRecords(fixes) {
			samples = append(samples, rtf.SparseSample{
				Day: day, Slot: rec.Slot, Road: rec.Road, Speed: rec.Speed,
			})
		}
	}
	fmt.Printf("fleet produced %d GPS fixes → %d sparse records\n", totalFixes, len(samples))

	// 2. Prior: a crude class-level model (no dense feed available); then
	//    refine the trajectory-covered cells.
	model := rtf.New(net)
	for t := tslot.Slot(0); t < tslot.PerDay; t++ {
		for r := 0; r < net.N(); r++ {
			model.SetMu(t, r, hist.Profiles[r].Base*0.8) // rough prior
			model.SetSigma(t, r, 8)
		}
	}
	rep, err := rtf.FitMomentsSparse(model, samples, 1, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sparse fit covered %.1f%% of node cells (%d/%d), %d edge cells\n",
		100*rep.MuCoverage(), rep.MuCells, rep.TotalMuCells, rep.RhoCells)

	// 3. Query through the trajectory-trained model.
	sys, err := core.NewFromModel(net, model, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	slot := tslot.OfMinute(8*60 + 30)
	query := []int{2, 11, 25, 37, 48, 59, 73, 88, 97, 110}
	res, err := sys.Query(context.Background(), core.QueryRequest{
		Slot: slot, Roads: query, Budget: 20, Theta: 0.92,
		Workers: crowd.PlaceEverywhere(net),
		Probe:   crowd.ProbeConfig{NoiseSD: 0.02, Seed: 64},
		Truth:   func(r int) float64 { return hist.At(evalDay, slot, r) },
	})
	if err != nil {
		log.Fatal(err)
	}
	est := make([]float64, len(query))
	tv := make([]float64, len(query))
	prior := make([]float64, len(query))
	for i, r := range query {
		est[i] = res.QuerySpeeds[r]
		tv[i] = hist.At(evalDay, slot, r)
		prior[i] = hist.Profiles[r].Base * 0.8
	}
	fmt.Printf("\nquery MAPE with trajectory-trained model: %.4f (crude prior alone: %.4f)\n",
		metrics.MAPE(est, tv), metrics.MAPE(prior, tv))
}
