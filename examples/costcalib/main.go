// Costcalib: the full crowdsourcing lifecycle around a query. Historical
// crowd answers (with per-worker bias and noise) are debiased with
// truth-inference, per-road costs are calibrated from the answer dispersion
// (§V-A: "estimate the exact value from the historical answers of crowd"),
// and the query then runs as a task campaign with imperfect worker
// willingness — partial tasks excluded from propagation.
//
//	go run ./examples/costcalib
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/network"
	"repro/internal/speedgen"
	"repro/internal/tslot"
	"repro/internal/workerqual"
)

func main() {
	net := network.Synthetic(network.SyntheticOptions{Roads: 150, Seed: 51})
	hist, err := speedgen.Generate(net, speedgen.Default(12, 52))
	if err != nil {
		log.Fatal(err)
	}
	evalDay := hist.Days - 1
	sys, err := core.Train(net, hist.DayRange(0, hist.Days-1), core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// 1. Simulate a month of past probe answers: 40 workers with individual
	//    bias (miscalibrated speedometers) and noise levels.
	rng := rand.New(rand.NewSource(53))
	nWorkers := 40
	biases := make([]float64, nWorkers)
	noises := make([]float64, nWorkers)
	for w := range biases {
		biases[w] = 3 * rng.NormFloat64()
		noises[w] = 0.5 + 3*rng.Float64()
	}
	var answers []workerqual.Answer
	slot := tslot.OfMinute(8 * 60)
	for day := 0; day < hist.Days-1; day++ {
		for k := 0; k < 60; k++ {
			road := rng.Intn(net.N())
			w := rng.Intn(nWorkers)
			truth := hist.At(day, slot, road)
			answers = append(answers, workerqual.Answer{
				Worker: w, Item: road,
				Value: truth + biases[w] + noises[w]*rng.NormFloat64(),
			})
		}
	}

	// 2. Debias and calibrate per-road costs from the answer dispersion.
	model := workerqual.CostModel{TargetSE: 2.0, MinCost: 1, MaxCost: 8}
	costs, err := workerqual.CalibrateCosts(answers, nWorkers, net.N(), model, workerqual.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	histCount := map[int]int{}
	for _, c := range costs {
		histCount[c]++
	}
	fmt.Printf("calibrated costs from %d historical answers:\n", len(answers))
	for c := model.MinCost; c <= model.MaxCost; c++ {
		if histCount[c] > 0 {
			fmt.Printf("  cost %d: %3d roads\n", c, histCount[c])
		}
	}

	// Rebuild the network with the calibrated costs.
	roads := net.Roads()
	for i := range roads {
		roads[i].Cost = costs[i]
	}
	net2, err := network.New(net.Graph(), roads)
	if err != nil {
		log.Fatal(err)
	}
	sys2, err := core.NewFromModel(net2, sys.Model(), core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// 3. Query through a campaign with 70% worker willingness.
	camp := crowd.DefaultCampaign(54)
	query := rng.Perm(net.N())[:12]
	res, err := sys2.Query(context.Background(), core.QueryRequest{
		Slot: slot, Roads: query, Budget: 30, Theta: 0.92,
		Workers:  crowd.PlaceEverywhere(net2),
		Campaign: &camp,
		Truth:    func(r int) float64 { return hist.At(evalDay, slot, r) },
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncampaign: %d fulfilled, %d partial, %d failed; spent %d/%d\n",
		res.Campaign.Fulfilled, res.Campaign.Partial, res.Campaign.Failed,
		res.Ledger.Spent, 30)
	fmt.Printf("%-6s %10s %10s\n", "road", "estimate", "truth")
	for _, r := range query {
		fmt.Printf("%-6d %10.1f %10.1f\n", r, res.QuerySpeeds[r], hist.At(evalDay, slot, r))
	}
}
