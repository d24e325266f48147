package experiments

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/obs"
)

// TestGoldenShapeSweep is the fast golden-shape regression guard: a budget
// sweep over a mid-size environment asserting the paper's qualitative
// invariants (the shapes of Fig. 2 and Fig. 3) that every refactor of the
// OCS/GSP stack must preserve:
//
//  1. VO(Hybrid) is monotone non-decreasing in the budget K,
//  2. Hybrid ≥ max(Ratio, OBJ, Rand) pointwise at every K,
//  3. every solution is budget-feasible (cost ≤ K),
//  4. GSP's MAPE beats the periodicity-only baseline (Per).
//
// The sweep runs on an instrumented system, so it doubles as a consistency
// check that the OCS solve counter agrees with the number of solver calls —
// the observability layer must not miscount under the exact workload the
// figures are produced from.
func TestGoldenShapeSweep(t *testing.T) {
	opt := Small()
	opt.Roads = 100
	opt.QuerySize = 14
	env, err := NewEnv(opt)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	env.Sys.Instrument(obs.NewPipeline(reg, obs.NewFakeClock(time.Unix(0, 0), time.Microsecond)))

	pool := crowd.PlaceEverywhere(env.Net)
	budgets := []int{10, 20, 30, 40, 50}
	selectors := []core.Selector{core.Hybrid, core.Ratio, core.Objective, core.RandomSel}
	const theta = 0.92

	solves := 0
	prevHybrid := -1.0
	for _, k := range budgets {
		vo := map[core.Selector]float64{}
		for _, sel := range selectors {
			sol, err := env.Sys.Select(context.Background(), core.SelectRequest{
				Slot: env.Slot, Roads: env.Query, WorkerRoads: pool.Roads(),
				Budget: k, Theta: theta, Selector: sel, Seed: env.Seed,
			})
			if err != nil {
				t.Fatalf("K=%d sel=%v: %v", k, sel, err)
			}
			solves++
			if sol.Cost > k {
				t.Errorf("K=%d sel=%v: infeasible cost %d", k, sel, sol.Cost)
			}
			vo[sel] = sol.Value
		}
		// Shape 2: Hybrid dominates every other selector pointwise.
		for _, sel := range []core.Selector{core.Ratio, core.Objective, core.RandomSel} {
			if vo[core.Hybrid]+1e-9 < vo[sel] {
				t.Errorf("K=%d: Hybrid VO %.6f below %v VO %.6f", k, vo[core.Hybrid], sel, vo[sel])
			}
		}
		// Shape 1: monotone in budget.
		if vo[core.Hybrid]+1e-9 < prevHybrid {
			t.Errorf("K=%d: Hybrid VO %.6f dropped below previous %.6f", k, vo[core.Hybrid], prevHybrid)
		}
		prevHybrid = vo[core.Hybrid]
	}

	// Observability consistency under the figure workload.
	if v, ok := reg.Value(obs.MOCSSolves); !ok || v != float64(solves) {
		t.Errorf("ocs_select_total = %v, want %d", v, solves)
	}

	// Shape 4: GSP beats the periodicity prior on held-out days.
	rows, err := Figure3(env, []core.Selector{core.Hybrid}, []int{30}, theta)
	if err != nil {
		t.Fatal(err)
	}
	var gspM, perM float64
	for _, r := range rows {
		switch r.Estimator {
		case "GSP":
			gspM = r.MAPE
		case "Per":
			perM = r.MAPE
		}
	}
	if gspM <= 0 || perM <= 0 {
		t.Fatalf("missing estimator rows: GSP %.4f Per %.4f", gspM, perM)
	}
	if gspM > perM {
		t.Errorf("GSP MAPE %.4f above Per %.4f — realtime signal not helping", gspM, perM)
	}
}
