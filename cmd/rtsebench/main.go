// Command rtsebench regenerates every table and figure of the paper's
// evaluation (§VII), plus the temporal, calibration and route-ETA ablations
// of the serving extensions, and prints them as text. By default it runs a
// reduced configuration that finishes in seconds; -paper switches to the
// full 607-road / 30-day setup.
//
//	rtsebench [-paper] [-rq N] [-only tableII,fig2,fig3,fig3dape,fig3theta,tableIII,fig4,fig5,fig6,ablate,temporal,calib,route]
//
// Every number is seeded, so two runs print the same tables (the figure
// timings aside). Serving performance is measured by the benchmark in bench/,
// not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// experimentNames are the -only names, in the order run prints them.
var experimentNames = []string{
	"tableii", "fig2", "fig3", "fig3dape", "fig3theta", "tableiii", "fig4",
	"fig5", "fig6", "ablate", "temporal", "calib", "route",
}

// The ablations' sweep axes: the configurations the golden tests in
// internal/experiments pin. The sparsest temporal probe level comes first.
var (
	temporalProbes = []int{4, 12, 24}
	calibLevels    = []float64{0.5, 0.8, 0.9, 0.95}
	calibDensities = []int{4, 8, 16}
	calibBudgets   = []int{3, 5, 8}
	routeDensities = []int{8, 16}
	routeBudgets   = []int{5, 10, 20}
)

const (
	temporalSlots   = 12 // consecutive slots walked per evaluation day
	temporalHorizon = 4  // forecast fan depth
	calibSlots      = 6  // scored slots per evaluation day (twice as many are walked)
	routePairs      = 6  // OD pairs in the route fleet
	routeSlots      = 6  // scored slots per evaluation day for the route sweep
	ablationTheta   = 0.92
)

func main() {
	paper := flag.Bool("paper", false, "run the full paper-scale configuration (607 roads, 30 days)")
	only := flag.String("only", "", "comma-separated subset of experiments to run: "+strings.Join(experimentNames, ","))
	rq := flag.Int("rq", 0, "override the query size |R^q| (the paper uses 33 and 51)")
	flag.Parse()
	if err := run(*paper, *only, *rq); err != nil {
		fmt.Fprintln(os.Stderr, "rtsebench:", err)
		os.Exit(1)
	}
}

// parseOnly turns the -only list into a set of experiment names; an empty
// list selects every experiment.
func parseOnly(only string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		if name == "" {
			continue
		}
		known := false
		for _, n := range experimentNames {
			known = known || n == name
		}
		if !known {
			return nil, fmt.Errorf("unknown experiment %q in -only (valid: %s)", name, strings.Join(experimentNames, ","))
		}
		want[name] = true
	}
	return want, nil
}

func run(paper bool, only string, querySize int) error {
	want, err := parseOnly(only)
	if err != nil {
		return err
	}
	enabled := func(name string) bool { return len(want) == 0 || want[name] }

	opt := experiments.Small()
	budgets := []int{10, 15, 20, 25, 30}
	fig5Sizes := []int{20, 40, 60, 80}
	fig6Budgets := []int{5, 10, 15, 20}
	dapeBudget := 10
	if paper {
		opt = experiments.Paper()
		budgets = []int{30, 60, 90, 120, 150}
		fig5Sizes = []int{150, 300, 450, 600}
		fig6Budgets = []int{10, 20, 30, 40, 50}
		dapeBudget = 30
	}

	if querySize > 0 {
		opt.QuerySize = querySize
	}

	fmt.Printf("CrowdRTSE experiment harness (paper=%v, roads=%d, days=%d)\n\n", paper, opt.Roads, opt.Days)

	if enabled("tableii") {
		rows, err := experiments.TableII(opt)
		if err != nil {
			return err
		}
		experiments.RenderTableII(os.Stdout, rows)
		fmt.Println()
	}

	if enabled("fig2") {
		start := time.Now()
		rows, err := experiments.Figure2(opt, budgets)
		if err != nil {
			return err
		}
		experiments.RenderFigure2(os.Stdout, rows)
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	}

	var env *experiments.Env
	for _, name := range []string{"fig3", "fig3dape", "fig3theta", "tableiii", "fig4", "ablate", "temporal", "calib", "route"} {
		if enabled(name) {
			env, err = experiments.NewEnv(opt)
			if err != nil {
				return err
			}
			break
		}
	}

	if enabled("fig3") {
		start := time.Now()
		rows, err := experiments.Figure3(env,
			[]core.Selector{core.Hybrid, core.Objective, core.RandomSel}, budgets, 0.92)
		if err != nil {
			return err
		}
		experiments.RenderFigure3(os.Stdout, rows)
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	}

	if enabled("fig3dape") {
		rows, err := experiments.Figure3DAPE(env, dapeBudget)
		if err != nil {
			return err
		}
		experiments.RenderFigure3DAPE(os.Stdout, rows)
		fmt.Println()
	}

	if enabled("fig3theta") {
		rows, err := experiments.Figure3Theta(env, budgets)
		if err != nil {
			return err
		}
		experiments.RenderFigure3Theta(os.Stdout, rows)
		fmt.Println()
	}

	if enabled("tableiii") {
		rows, err := experiments.TableIII(env, budgets)
		if err != nil {
			return err
		}
		experiments.RenderTableIII(os.Stdout, rows, budgets)
		fmt.Println()
	}

	if enabled("fig4") {
		a, err := experiments.Figure4a(env, budgets)
		if err != nil {
			return err
		}
		b, err := experiments.Figure4b(env, budgets)
		if err != nil {
			return err
		}
		experiments.RenderFigure4(os.Stdout, a, b)
		fmt.Println()
	}

	if enabled("fig5") {
		start := time.Now()
		rows, err := experiments.Figure5(opt, fig5Sizes, 0.5)
		if err != nil {
			return err
		}
		experiments.RenderFigure5(os.Stdout, rows)
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	}

	if enabled("fig6") {
		start := time.Now()
		rows, err := experiments.Figure6(opt, fig6Budgets)
		if err != nil {
			return err
		}
		experiments.RenderFigure6(os.Stdout, rows)
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	}

	if enabled("ablate") {
		rows, err := experiments.AblateTransforms(env, budgets)
		if err != nil {
			return err
		}
		experiments.RenderAblateTransforms(os.Stdout, rows)
		fmt.Println()
	}

	if enabled("temporal") {
		ablation, err := experiments.TemporalAblation(env, temporalProbes, temporalSlots)
		if err != nil {
			return err
		}
		experiments.RenderTemporalAblation(os.Stdout, ablation)
		fmt.Println()
		forecast, err := experiments.TemporalForecast(env, temporalProbes[len(temporalProbes)/2], temporalSlots, temporalHorizon)
		if err != nil {
			return err
		}
		experiments.RenderTemporalForecast(os.Stdout, forecast)
		fmt.Println()
	}

	if enabled("calib") {
		res, err := experiments.CalibrationAblation(env, calibDensities, calibLevels, calibSlots)
		if err != nil {
			return err
		}
		experiments.RenderCalibration(os.Stdout, res)
		fmt.Println()
		varmin, err := experiments.VarMinAblation(env, calibBudgets, ablationTheta)
		if err != nil {
			return err
		}
		experiments.RenderVarMin(os.Stdout, varmin)
		fmt.Println()
	}

	if enabled("route") {
		cov, err := experiments.RouteETACoverage(env, routePairs, routeDensities, calibLevels, routeSlots)
		if err != nil {
			return err
		}
		experiments.RenderRouteCoverage(os.Stdout, cov)
		fmt.Println()
		rows, err := experiments.RouteOCSAblation(env, routePairs, routeBudgets, ablationTheta)
		if err != nil {
			return err
		}
		experiments.RenderRouteOCS(os.Stdout, rows)
		fmt.Println()
	}

	return nil
}
