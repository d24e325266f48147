// Chaosdrill: exercise the fault-tolerant online pipeline under compound
// failures — worker dropout, road blackouts, stale and adversarial answers,
// and late deliveries — and watch it recycle the budget of failed tasks
// into fresh OCS rounds, then degrade gracefully to the periodicity prior
// when the crowd vanishes entirely.
//
// The final drill turns from supply faults to demand faults: a deterministic
// overload scenario (faults.NewOverload — diurnal surge, transient bursts,
// collector latency spike) is replayed through a qos.Controller, showing the
// QoS ladder shedding batch and interactive traffic under pressure while the
// alerting class, stepped down to cheaper tiers at the peak, is never shed,
// then recovering.
//
//	go run ./examples/chaosdrill
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/qos"
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
	net := network.Synthetic(network.SyntheticOptions{Roads: 200, Seed: 7, CostMax: 5})
	hist, err := speedgen.Generate(net, speedgen.Default(14, 8))
	if err != nil {
		return err
	}
	trainDays := hist.Days - 1
	evalDay := hist.Days - 1
	sys, err := core.Train(net, hist.DayRange(0, trainDays), core.DefaultConfig())
	if err != nil {
		return err
	}

	slot := tslot.OfMinute(8*60 + 30)
	query := []int{3, 17, 42, 55, 81, 102, 133, 150, 177, 198}
	truth := func(r int) float64 { return hist.At(evalDay, slot, r) }
	pool := crowd.PlaceEverywhere(net)

	drill := func(label string, cfg faults.Config) error {
		inj, err := faults.New(cfg)
		if err != nil {
			return err
		}
		camp := inj.WrapCampaign(crowd.DefaultCampaign(1))
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		res, err := sim.RunQuery(ctx, sys.Pin(nil), net, sim.QueryRequest{
			Slot: slot, Roads: query, Budget: 40, Theta: 0.92,
			Workers: inj.FilterPool(pool), Seed: 1,
			Campaign: &camp, Rounds: 3,
			Truth: inj.WrapTruth(truth),
		})
		if err != nil {
			return err
		}
		var est, tru []float64
		for _, r := range query {
			est = append(est, res.QuerySpeeds[r])
			tru = append(tru, truth(r))
		}
		mape := metrics.MAPE(est, tru)
		fmt.Fprintf(w, "\n== %s ==\n", label)
		fmt.Fprintf(w, "rounds %d, spent %d/40, recycled %d, tasks %d ok / %d partial / %d failed / %d late\n",
			res.Rounds, res.Ledger.Spent, res.BudgetRecycled,
			res.Campaign.Fulfilled, res.Campaign.Partial, res.Campaign.Failed, res.Campaign.Late)
		if len(res.AbandonedRoads) > 0 {
			fmt.Fprintf(w, "abandoned roads: %v\n", res.AbandonedRoads)
		}
		fmt.Fprintf(w, "degraded=%v deadlineHit=%v  query MAPE %.1f%%\n",
			res.Degraded, res.DeadlineHit, 100*mape)
		return nil
	}

	history := func(r, lag int) float64 { return hist.At(evalDay, slot.Add(-lag), r) }

	if err := drill("calm seas (no faults)", faults.Config{Seed: 42}); err != nil {
		return err
	}
	if err := drill("storm: 30% dropout + blackouts on roads 17,42 + stale/garbage/late answers",
		faults.Config{
			Seed:        42,
			DropoutProb: 0.30,
			Blackouts:   []int{17, 42},
			StaleProb:   0.10, StaleLag: 1, History: history,
			GarbageProb: 0.05,
			LatencyProb: 0.10,
		}); err != nil {
		return err
	}
	if err := drill("total blackout: 100% dropout (fallback to the periodicity prior)",
		faults.Config{Seed: 42, DropoutProb: 1}); err != nil {
		return err
	}
	return overloadDrill(w)
}

// overloadDrill replays a deterministic surge through the admission
// controller: demand quadruples, the collector slows down, pressure climbs,
// and the QoS ladder sheds batch and interactive traffic while alerting is
// never shed.
func overloadDrill(w io.Writer) error {
	sc, err := faults.NewOverload(faults.OverloadConfig{
		Seed:         42,
		Steps:        60,
		BaseArrivals: 12,
		SurgeStart:   20, SurgeEnd: 40, SurgeFactor: 6,
		BurstProb:   0.15,
		BaseLatency: 40 * time.Millisecond,
		ClassMix: []faults.ClassShare{
			{Class: "alerting", Tenant: "ops", Share: 0.1},
			{Class: "interactive", Tenant: "maps", Share: 0.3},
			{Class: "batch", Tenant: "etl", Share: 0.6},
		},
	})
	if err != nil {
		return err
	}

	clk := obs.NewFakeClock(time.Unix(1_700_000_000, 0), 0)
	ctl, err := qos.New(qos.Config{
		MaxInFlight: 24, // calibrated so the surge's offered load saturates
		Tenants: []qos.TenantConfig{
			{Key: "ops-key", Name: "ops", Class: qos.ClassAlerting},
			{Key: "maps-key", Name: "maps", Class: qos.ClassInteractive},
			{Key: "etl-key", Name: "etl", Class: qos.ClassBatch},
		},
	}, clk)
	if err != nil {
		return err
	}
	var load float64
	ctl.SetSignals(func() float64 { return load }, func() float64 { return 0 })
	keys := map[string]string{"ops": "ops-key", "maps": "maps-key", "etl": "etl-key"}

	fmt.Fprintf(w, "\n== overload drill: diurnal surge through the admission controller ==\n")
	fmt.Fprintf(w, "%4s %9s %6s  %s\n", "step", "pressure", "shed", "tiers served (this step)")
	firstShed := map[qos.Class]int{}
	for step := 0; step < sc.Steps(); step++ {
		load = sc.OfferedLoad(step)
		tiers := map[string]int{}
		shed := 0
		for _, a := range sc.Arrivals(step) {
			tenant, ok := ctl.Resolve(keys[a.Tenant])
			if !ok {
				return fmt.Errorf("unknown tenant %q", a.Tenant)
			}
			class, err := qos.ParseClass(a.Class)
			if err != nil {
				return err
			}
			d := ctl.Admit(tenant, class, 1)
			if !d.Admit {
				shed++
				if _, seen := firstShed[class]; !seen {
					firstShed[class] = step
				}
				continue
			}
			tiers[d.Tier.String()]++
		}
		clk.Advance(time.Second)
		if step%5 == 0 || shed > 0 && step%2 == 0 {
			fmt.Fprintf(w, "%4d %9.2f %6d  %v\n", step, ctl.Pressure(), shed, tiers)
		}
	}

	rep := ctl.Report()
	fmt.Fprintln(w, "\ntenant totals (admitted / shed by class):")
	for _, tr := range rep.Tenants {
		fmt.Fprintf(w, "  %-5s admitted=%v shed=%v tiers=%v\n", tr.Name, tr.Admitted, tr.Shed, tr.Tiers)
		if tr.Name == "ops" && tr.Shed["alerting"] > 0 {
			return errors.New("drill invariant violated: alerting traffic was shed")
		}
	}
	if len(firstShed) > 0 {
		fmt.Fprintf(w, "first shed step by class: %v (batch sheds no later than interactive)\n", firstShed)
	}
	return nil
}
