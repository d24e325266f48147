// Routeplanner: use CrowdRTSE estimates as travel-time edge weights for
// routing — one of the downstream urban applications the paper lists
// (route planning). A jam breaks out on the habitual (periodic-best) route;
// crowdsourced probes let the realtime-aware plan detour around it, while
// the periodic plan drives straight into it. Both plans are evaluated
// against ground-truth travel time via the router package.
//
//	go run ./examples/routeplanner
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/network"
	"repro/internal/router"
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
	net := network.Synthetic(network.SyntheticOptions{Roads: 250, Seed: 31, CostMax: 5})
	hist, err := speedgen.Generate(net, speedgen.Default(15, 32))
	if err != nil {
		return err
	}
	evalDay := hist.Days - 1
	sys, err := core.Train(net, hist.DayRange(0, hist.Days-1), core.DefaultConfig())
	if err != nil {
		return err
	}

	depart := 17*60 + 30.0 // evening rush
	slot := tslot.OfMinute(int(depart))
	g := net.Graph()

	// Route between far-apart endpoints.
	src := 0
	order := g.BFSOrder(src)
	dst := order[len(order)-1]

	// The habitual route, planned on periodic speeds alone.
	view := sys.Model().At(slot)
	perSpeeds := append([]float64(nil), view.Mu...)
	perRoute, err := router.Static(net, perSpeeds, src, dst)
	if err != nil {
		return err
	}
	if len(perRoute.Roads) < 5 {
		return fmt.Errorf("degenerate route of %d roads", len(perRoute.Roads))
	}

	// A jam erupts mid-route: the middle road and its neighbors crawl.
	jammed := map[int]bool{}
	mid := perRoute.Roads[len(perRoute.Roads)/2]
	jammed[mid] = true
	for _, nb := range g.Neighbors(mid) {
		jammed[int(nb)] = true
	}
	truth := func(r int) float64 {
		v := hist.At(evalDay, slot, r)
		if jammed[r] {
			return v * 0.15
		}
		return v
	}
	truthField := func(_ tslot.Slot, r int) float64 { return truth(r) }

	// Realtime query over the whole network; the crowd reports the jam.
	all := make([]int, net.N())
	for i := range all {
		all[i] = i
	}
	res, err := sim.RunQuery(context.Background(), sys.Pin(nil), net, sim.QueryRequest{
		Slot: slot, Roads: all, Budget: 60, Theta: 0.92,
		Workers: crowd.PlaceEverywhere(net),
		Probe:   crowd.ProbeConfig{NoiseSD: 0.02, Seed: 33},
		Truth:   truth,
	})
	if err != nil {
		return err
	}

	crowdRoute, err := router.Static(net, res.Speeds, src, dst)
	if err != nil {
		return err
	}
	truthSpeeds := make([]float64, net.N())
	for r := range truthSpeeds {
		truthSpeeds[r] = truth(r)
	}
	optRoute, err := router.Static(net, truthSpeeds, src, dst)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "routing %d → %d at %s; jam on road %d and its neighbors\n\n", src, dst, slot, mid)
	fmt.Fprintf(w, "%-22s %8s %10s\n", "plan", "roads", "minutes")
	for _, p := range []struct {
		name  string
		route router.Route
		note  string
	}{
		{"periodic speeds", perRoute, "(drives into the jam)"},
		{"CrowdRTSE estimates", crowdRoute, ""},
		{"true speeds", optRoute, "(hindsight optimum)"},
	} {
		actual, err := router.Evaluate(net, truthField, depart, p.route)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-22s %8d %10.1f   %s\n", p.name, len(p.route.Roads), actual, p.note)
	}
	return nil
}
