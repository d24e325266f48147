// Accidentwatch: realtime incident detection — an application the paper's
// introduction motivates. An accident slashes speeds on a road and its
// surroundings mid-morning; the operator runs periodic CrowdRTSE sweeps and
// feeds the estimates (with their confidence field) to the detector, which
// alerts only where probe-supported estimates drop anomalously below the
// periodic pattern.
//
//	go run ./examples/accidentwatch
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/detect"
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
	net := network.Synthetic(network.SyntheticOptions{Roads: 200, Seed: 81})
	cfg := speedgen.Default(12, 82)
	cfg.IncidentsPerDay = 0 // the only incident today is ours
	hist, err := speedgen.Generate(net, cfg)
	if err != nil {
		return err
	}
	evalDay := hist.Days - 1
	sys, err := core.Train(net, hist.DayRange(0, hist.Days-1), core.DefaultConfig())
	if err != nil {
		return err
	}

	// The accident: road 42 and its neighbors crawl from 09:10 to 10:30.
	site := 42
	affected := map[int]bool{site: true}
	for _, nb := range net.Neighbors(site) {
		affected[int(nb)] = true
	}
	from, to := tslot.OfMinute(9*60+10), tslot.OfMinute(10*60+30)
	truthAt := func(slot tslot.Slot) crowd.TruthFunc {
		return func(r int) float64 {
			v := hist.At(evalDay, slot, r)
			if affected[r] && slot >= from && slot <= to {
				if r == site {
					return v * 0.15
				}
				return v * 0.5
			}
			return v
		}
	}

	pool := crowd.PlaceEverywhere(net)
	all := make([]int, net.N())
	for i := range all {
		all[i] = i
	}
	fmt.Fprintln(w, "time    probes  alerts")
	for minute := 8 * 60; minute <= 11*60+30; minute += 30 {
		slot := tslot.OfMinute(minute)
		res, err := sim.RunQuery(context.Background(), sys.Pin(nil), net, sim.QueryRequest{
			Slot: slot, Roads: all, Budget: 50, Theta: 0.92,
			Workers: pool, Seed: int64(minute),
			Probe: crowd.ProbeConfig{NoiseSD: 0.02, Seed: int64(minute)},
			Truth: truthAt(slot),
		})
		if err != nil {
			return err
		}
		// Stricter than the default: weak-periodicity roads produce ≥2σ
		// swings on ordinary days, a real incident stands far above them.
		detCfg := detect.Config{MinDrop: 0.35, MinZ: 3.5, MaxSDFrac: 0.8}
		alerts, err := detect.Scan(sys.Model().At(slot), res.Propagation, detCfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s   %5d   ", slot, len(res.Selected.Roads))
		if len(alerts) == 0 {
			fmt.Fprintln(w, "—")
			continue
		}
		for i, a := range alerts {
			if i > 0 {
				fmt.Fprint(w, "; ")
			}
			mark := ""
			if affected[a.Road] {
				mark = "*" // ground-truth incident road
			}
			fmt.Fprintf(w, "road %d%s drop %.0f%% (z=%.1f)", a.Road, mark, 100*a.Drop, a.Z)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\n(*) roads actually affected by the staged accident")
	return nil
}
