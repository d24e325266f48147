// Batchquery: the serving Batcher end to end, as the HTTP routes run it. A
// dashboard-style burst of concurrent identical estimates shares one
// propagation (the Batcher's singleflight), and a re-estimate after one
// revised report warm-starts from the previous field and resweeps only the
// dirty frontier.
//
//	go run ./examples/batchquery
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"repro/internal/core"
	"repro/internal/gsp"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

func main() {
	// Train a small system and instrument it so the propagation counters
	// are visible.
	net := network.Synthetic(network.SyntheticOptions{Roads: 1500, Seed: 11, CostMax: 5})
	hist, err := speedgen.Generate(net, speedgen.Default(10, 12))
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.Train(net, hist.DayRange(0, hist.Days-1), core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	pipe := obs.NewPipeline(obs.NewRegistry(), obs.SystemClock())
	sys.Instrument(pipe)
	b, err := core.NewBatcher(sys)
	if err != nil {
		log.Fatal(err)
	}

	evalDay := hist.Days - 1
	slot := tslot.OfMinute(8*60 + 30)
	truth := func(r int) float64 { return hist.At(evalDay, slot, r) }
	reports := map[int]float64{}
	for r := 0; r < net.N(); r += 10 {
		reports[r] = truth(r)
	}

	// 1. Singleflight: 16 clients, released at once, ask for the same slot
	//    over the same reports. A client that arrives while an identical
	//    propagation runs waits for that field instead of paying for its
	//    own, so how many share depends on how the clients overlap (most of
	//    them, on a multi-core machine).
	const clients = 16
	results := make([]gsp.Result, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			res, err := b.Estimate(context.Background(), slot, reports)
			if err != nil {
				log.Fatal(err)
			}
			results[c] = res
		}(c)
	}
	close(start)
	wg.Wait()
	fmt.Printf("singleflight: %d concurrent identical estimates → %d propagation(s), %d served by a run another client started\n",
		clients, pipe.GSP.Runs.Value(), pipe.Batch.Coalesced.Value())
	fmt.Printf("              client 3 sees road 43 at %.1f km/h (truth %.1f)\n\n",
		results[3].Speeds[43], truth(43))

	// 2. Warm-start: one road's report is revised; the re-estimate seeds from
	//    the slot's previous field and resweeps only the dirty frontier.
	cold := results[0]
	for _, res := range results {
		if !res.WarmStarted {
			cold = res
		}
	}
	reports[10] += 6
	warm, err := b.Estimate(context.Background(), slot, reports)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm-start: the cold propagation swept %d times, the re-estimate after one revised report %d (warm=%v)\n",
		cold.Iterations, warm.Iterations, warm.WarmStarted)
}
