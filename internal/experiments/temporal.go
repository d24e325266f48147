package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/temporal"
)

// TemporalRow is one sparsity level of the cross-slot filter ablation:
// independent per-slot GSP vs the state-space filter that carries evidence
// across slots, both walked over the same consecutive-slot window with the
// same probes.
type TemporalRow struct {
	Probes     int
	GSPMAPE    float64
	FilterMAPE float64
	// WinPct is the filter's relative MAPE improvement over per-slot GSP in
	// percent (positive = filter better).
	WinPct float64
	// ForecastSD is the mean-over-query-roads forecast SD at horizons
	// 1..len from the filter's final state — the honesty curve
	// TestGoldenTemporalAblation checks for monotonicity.
	ForecastSD []float64
}

// temporalForecastHorizon is how far the post-walk forecast fan extends.
const temporalForecastHorizon = 4

// TemporalAblation walks `slots` consecutive slots on each evaluation day at
// several probe-sparsity levels. Per slot it draws a random probe set
// (truth + 2% noise), runs an independent GSP estimate from just those
// probes, and separately fuses the same probes, once, into a cross-slot
// filter — the production rule, under which only crowd reports reach the
// filter. MAPE is measured on the query roads against held-out truth,
// averaged over slots and days.
//
// Probe sets are NESTED across sparsity levels: one permutation (and one
// noise draw per road) is fixed per (day, slot), and level k probes its
// first k roads. Sparser levels therefore see a strict subset of the denser
// levels' evidence, so the comparison across levels isolates sparsity
// instead of re-rolling the sampling noise.
//
// The filter's edge is memory: probe sets differ slot to slot, so after a
// few steps the filter has absorbed direct evidence on many more roads than
// any single slot's GSP pass saw — the sparser the probes, the larger that
// gap, which is the paper-style claim the golden test pins.
func TemporalAblation(env *Env, probeCounts []int, slots int) ([]TemporalRow, error) {
	if slots < 2 {
		return nil, fmt.Errorf("experiments: temporal ablation needs ≥2 slots, got %d", slots)
	}
	classes := roadClasses(env)
	params := temporal.FitAR1(env.Sys.Model(), env.TrainHist, classes)

	// Shared probe schedule: perm and noise per (day, slot), reused by every
	// sparsity level.
	type schedule struct {
		perm  []int
		noise []float64
	}
	sched := map[[2]int]schedule{}
	for _, day := range env.EvalDays {
		rng := rand.New(rand.NewSource(env.Seed + int64(7919*day)))
		for i := 0; i < slots; i++ {
			s := schedule{perm: rng.Perm(env.Net.N()), noise: make([]float64, env.Net.N())}
			for j := range s.noise {
				s.noise[j] = rng.NormFloat64()
			}
			sched[[2]int{day, i}] = s
		}
	}

	var rows []TemporalRow
	for _, probes := range probeCounts {
		if probes < 1 || probes > env.Net.N() {
			return nil, fmt.Errorf("experiments: probe count %d out of range", probes)
		}
		var gspSum, filtSum float64
		forecastSD := make([]float64, temporalForecastHorizon)
		for _, day := range env.EvalDays {
			filt, err := temporal.New(env.Sys.Model(), env.Slot, params, classes, temporal.Options{})
			if err != nil {
				return nil, err
			}
			for i := 0; i < slots; i++ {
				t := env.Slot
				for s := 0; s < i; s++ {
					t = t.Next()
				}
				sc := sched[[2]int{day, i}]
				observed := map[int]float64{}
				for _, r := range sc.perm[:probes] {
					truth := env.Hist.At(day, t, r)
					observed[r] = truth * (1 + 0.02*sc.noise[r])
				}
				res, err := env.Sys.Estimate(context.TODO(), t, observed)
				if err != nil {
					return nil, err
				}
				if _, err := filt.Advance(t); err != nil {
					return nil, err
				}
				if err := filt.Update(observed, nil); err != nil {
					return nil, err
				}
				est := filt.Now()
				gspEst := make([]float64, len(env.Query))
				filtEst := make([]float64, len(env.Query))
				truth := make([]float64, len(env.Query))
				for qi, r := range env.Query {
					gspEst[qi] = res.Speeds[r]
					filtEst[qi] = est.Speeds[r]
					truth[qi] = env.Hist.At(day, t, r)
				}
				gspSum += metrics.MAPE(gspEst, truth)
				filtSum += metrics.MAPE(filtEst, truth)
			}
			fan, err := filt.Forecast(temporalForecastHorizon)
			if err != nil {
				return nil, err
			}
			for k, step := range fan {
				var sd float64
				for _, r := range env.Query {
					sd += step.SD[r]
				}
				forecastSD[k] += sd / float64(len(env.Query))
			}
		}
		n := float64(len(env.EvalDays) * slots)
		gspM, filtM := gspSum/n, filtSum/n
		for k := range forecastSD {
			forecastSD[k] /= float64(len(env.EvalDays))
		}
		rows = append(rows, TemporalRow{
			Probes:     probes,
			GSPMAPE:    gspM,
			FilterMAPE: filtM,
			WinPct:     100 * (gspM - filtM) / gspM,
			ForecastSD: forecastSD,
		})
	}
	return rows, nil
}

// ForecastRow is forecast accuracy at one horizon. Raw k-step MAPE is paired
// with the periodicity prior's MAPE on the exact same target slots, because
// per-slot difficulty varies wildly (incident slots inflate everyone's MAPE);
// Skill = PriorMAPE − MAPE is the paired improvement, the quantity that
// decays cleanly with horizon.
type ForecastRow struct {
	Horizon   int
	MAPE      float64
	PriorMAPE float64
	Skill     float64
	MeanSD    float64
}

// temporalWarmup is how many walked slots feed the filter before its
// forecasts start being scored — the fan from a near-virgin filter is just
// the prior and would dilute the horizon curve.
const temporalWarmup = 3

// TemporalForecast walks the same probe-fed filter as TemporalAblation at a
// single sparsity level and, once warmed up, scores the k-step forecast fan
// at every slot against the truth that later materializes. Rows come back
// indexed by horizon; skill over the prior should fade and MeanSD widen as
// k grows — that pairing (less edge *and* admittedly less sure) is the
// honesty property TestGoldenTemporalForecastHorizon pins.
func TemporalForecast(env *Env, probes, slots, horizon int) ([]ForecastRow, error) {
	if horizon < 1 {
		return nil, fmt.Errorf("experiments: forecast horizon %d < 1", horizon)
	}
	if slots <= temporalWarmup {
		return nil, fmt.Errorf("experiments: need > %d slots for forecast scoring, got %d",
			temporalWarmup, slots)
	}
	if probes < 1 || probes > env.Net.N() {
		return nil, fmt.Errorf("experiments: probe count %d out of range", probes)
	}
	classes := roadClasses(env)
	params := temporal.FitAR1(env.Sys.Model(), env.TrainHist, classes)
	mapeSum := make([]float64, horizon)
	priorSum := make([]float64, horizon)
	sdSum := make([]float64, horizon)
	samples := 0
	for _, day := range env.EvalDays {
		filt, err := temporal.New(env.Sys.Model(), env.Slot, params, classes, temporal.Options{})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(env.Seed + int64(7919*day)))
		t := env.Slot
		for i := 0; i < slots; i++ {
			perm := rng.Perm(env.Net.N())
			observed := map[int]float64{}
			for _, r := range perm[:probes] {
				observed[r] = env.Hist.At(day, t, r) * (1 + 0.02*rng.NormFloat64())
			}
			if _, err := filt.Advance(t); err != nil {
				return nil, err
			}
			if err := filt.Update(observed, nil); err != nil {
				return nil, err
			}
			if i >= temporalWarmup {
				fan, err := filt.Forecast(horizon)
				if err != nil {
					return nil, err
				}
				samples++
				ft := t
				for k, step := range fan {
					ft = ft.Next()
					est := make([]float64, len(env.Query))
					prior := make([]float64, len(env.Query))
					truth := make([]float64, len(env.Query))
					var sd float64
					for qi, r := range env.Query {
						est[qi] = step.Speeds[r]
						prior[qi] = env.Sys.Model().Mu(ft, r)
						truth[qi] = env.Hist.At(day, ft, r)
						sd += step.SD[r]
					}
					mapeSum[k] += metrics.MAPE(est, truth)
					priorSum[k] += metrics.MAPE(prior, truth)
					sdSum[k] += sd / float64(len(env.Query))
				}
			}
			t = t.Next()
		}
	}
	rows := make([]ForecastRow, horizon)
	for k := 0; k < horizon; k++ {
		m := mapeSum[k] / float64(samples)
		p := priorSum[k] / float64(samples)
		rows[k] = ForecastRow{
			Horizon:   k + 1,
			MAPE:      m,
			PriorMAPE: p,
			Skill:     p - m,
			MeanSD:    sdSum[k] / float64(samples),
		}
	}
	return rows, nil
}

// roadClasses collects the per-road class vector the filter's parameter
// table is keyed by.
func roadClasses(env *Env) []network.Class {
	classes := make([]network.Class, env.Net.N())
	for i := range classes {
		classes[i] = env.Net.Road(i).Class
	}
	return classes
}

// RenderTemporalForecast writes the horizon curve as text.
func RenderTemporalForecast(w io.Writer, rows []ForecastRow) {
	fmt.Fprintf(w, "Forecast fan vs realized truth (paired against the periodicity prior)\n")
	fmt.Fprintf(w, "%8s %10s %10s %10s %10s\n", "k", "MAPE", "prior", "skill", "mean SD")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %10.4f %10.4f %10.4f %10.3f\n",
			r.Horizon, r.MAPE, r.PriorMAPE, r.Skill, r.MeanSD)
	}
}

// RenderTemporalAblation writes the ablation as text.
func RenderTemporalAblation(w io.Writer, rows []TemporalRow) {
	fmt.Fprintf(w, "Ablation: per-slot GSP vs cross-slot state-space filter (MAPE on R^q)\n")
	fmt.Fprintf(w, "%8s %10s %12s %8s   %s\n", "probes", "GSP", "filter", "win%", "forecast SD (k=1..)")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %10.4f %12.4f %7.1f%%  ", r.Probes, r.GSPMAPE, r.FilterMAPE, r.WinPct)
		for _, sd := range r.ForecastSD {
			fmt.Fprintf(w, " %.3f", sd)
		}
		fmt.Fprintln(w)
	}
}
