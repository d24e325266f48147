// Forecastwatch: the temporal layer end-to-end. A watcher follows a small
// road set while slots advance. Each slot's probe-vehicle reports go through
// the Batcher's ingest path (Batcher.Report): the first report of a slot
// walks the cross-slot Kalman filter there, fusing the slot it leaves once.
// After every slot the watcher prints the GSP estimate, the filter's
// now-cast (carried in from the slots before) and a 3-slot forecast fan
// from this slot's reports — mean and an honestly widening ± band per
// road.
//
//	go run ./examples/forecastwatch
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/qos"
	"repro/internal/speedgen"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/tslot"
)

const fanDepth = 3

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	net := network.Synthetic(network.SyntheticOptions{Roads: 120, Seed: 21, CostMax: 5})
	hist, err := speedgen.Generate(net, speedgen.Default(10, 22))
	if err != nil {
		return err
	}
	sys, err := core.Train(net, hist.DayRange(0, hist.Days-1), core.DefaultConfig())
	if err != nil {
		return err
	}
	b, err := core.NewBatcher(sys)
	if err != nil {
		return err
	}

	// Fit the per-class AR(1) transition from the training days and attach
	// the filter: from here on, the reports the Batcher ingests walk it.
	classes := make([]network.Class, net.N())
	for i := range classes {
		classes[i] = net.Road(i).Class
	}
	start := tslot.OfMinute(17 * 60) // 5pm, rush hour building
	params := temporal.FitAR1(sys.Model(), hist.DayRange(0, hist.Days-1), classes)
	filt, err := temporal.New(sys.Model(), start, params, classes, temporal.Options{})
	if err != nil {
		return err
	}
	if err := b.AttachTemporal(filt); err != nil {
		return err
	}

	watch := []int{7, 33, 88}
	evalDay := hist.Days - 1
	rng := rand.New(rand.NewSource(23))

	fmt.Fprintf(w, "watching roads %v from slot %d (5:00pm), %d-slot forecast fan\n\n", watch, start, fanDepth)
	slot := start
	for step := 0; step < 4; step++ {
		// A handful of probe-vehicle reports for this slot (truth + noise).
		for _, r := range rng.Perm(net.N())[:6] {
			v := hist.At(evalDay, slot, r) * (1 + 0.02*rng.NormFloat64())
			if err := b.Report(stream.Report{Road: r, Slot: slot, Speed: v}); err != nil {
				return err
			}
		}

		// The estimate and the fan read the slot's aggregates through the
		// Batcher; neither moves the filter.
		res, err := b.EstimateTier(context.Background(), qos.TierFull, slot, nil)
		if err != nil {
			return err
		}

		now := filt.Now()
		fmt.Fprintf(w, "slot %d (%d reports in):\n", slot, res.ObservedRoads)
		for _, r := range watch {
			fmt.Fprintf(w, "  road %3d  gsp %5.1f  filtered %5.1f ± %4.1f km/h  (truth %5.1f)\n",
				r, res.Speeds[r], now.Speeds[r], now.SD[r], hist.At(evalDay, slot, r))
		}

		fan, _, err := b.Forecast(slot, fanDepth)
		if err != nil {
			return err
		}
		for _, r := range watch {
			fmt.Fprintf(w, "  road %3d forecast:", r)
			for _, f := range fan {
				fmt.Fprintf(w, "  +%dm %5.1f ± %4.1f", 5*f.Step, f.Speeds[r], f.SD[r])
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
		slot = slot.Next()
	}
	fmt.Fprintln(w, "the band widens with every step ahead — the filter forgets honestly.")
	return nil
}
