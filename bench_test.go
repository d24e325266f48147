package repro

// One benchmark per table/figure of the paper's evaluation (§VII), plus
// ablation benches for the design choices called out in DESIGN.md. Each
// experiment benchmark drives the same code path as cmd/rtsebench, at the
// reduced scale of experiments.Small (the -paper flag of rtsebench runs the
// full 607-road × 30-day configuration; EXPERIMENTS.md records its output).
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/corr"
	"repro/internal/crowd"
	"repro/internal/experiments"
	"repro/internal/network"
	"repro/internal/ocs"
	"repro/internal/rtf"
	"repro/internal/sim"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		e, err := experiments.NewEnv(experiments.Small())
		if err != nil {
			panic(err)
		}
		benchEnv = e
	})
	return benchEnv
}

// --- Table II -------------------------------------------------------------

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableII(experiments.Small()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 2: OCS objective vs budget, both cost ranges --------------------

func BenchmarkFig2_VOvsBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(experiments.Small(), []int{10, 20, 30}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 3: estimation quality -------------------------------------------

func BenchmarkFig3_QualityGrid(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := experiments.Figure3(e, []core.Selector{core.Hybrid, core.RandomSel}, []int{10, 20}, 0.92)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_DAPE(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3DAPE(e, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_ThetaEffect(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3Theta(e, []int{10, 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table III: hop coverage -------------------------------------------------

func BenchmarkTableIII_Coverage(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableIII(e, []int{10, 20, 30}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 4: running time --------------------------------------------------
// The paper measures wall time per solver/estimator; the Go-native analogue
// is one benchmark per measured operation.

func ocsProblem(b *testing.B, budget int) *ocs.Problem {
	e := env(b)
	pool := crowd.PlaceEverywhere(e.Net)
	view := e.Sys.Model().At(e.Slot)
	return &ocs.Problem{
		Query:   e.Query,
		Workers: pool.Roads(),
		Costs:   e.Net.Costs(),
		Budget:  budget,
		Theta:   0.92,
		Sigma:   view.Sigma,
		Oracle:  e.Sys.Oracle(e.Slot),
	}
}

func BenchmarkFig4a_OCSHybrid(b *testing.B) {
	p := ocsProblem(b, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ocs.HybridGreedy(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4a_OCSRatio(b *testing.B) {
	p := ocsProblem(b, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ocs.RatioGreedy(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4a_OCSObjective(b *testing.B) {
	p := ocsProblem(b, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ocs.ObjectiveGreedy(p); err != nil {
			b.Fatal(err)
		}
	}
}

// benchObserved probes a Hybrid selection once, for estimator benches.
func benchObserved(b *testing.B) map[int]float64 {
	e := env(b)
	pool := crowd.PlaceEverywhere(e.Net)
	sol, err := e.Sys.Select(context.Background(), core.SelectRequest{
		Slot: e.Slot, Roads: e.Query, WorkerRoads: pool.Roads(),
		Budget: 20, Theta: 0.92, Selector: core.Hybrid, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	day := e.EvalDays[0]
	probed, _, err := pool.Probe(sol.Roads, e.Net.Costs(),
		func(r int) float64 { return e.Hist.At(day, e.Slot, r) },
		crowd.ProbeConfig{NoiseSD: 0.02, Seed: 1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	return probed
}

func BenchmarkFig4b_GSP(b *testing.B) {
	e := env(b)
	observed := benchObserved(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Sys.Estimate(context.Background(), e.Slot, observed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4b_LASSO(b *testing.B) {
	e := env(b)
	observed := benchObserved(b)
	l := baselines.NewLasso(e.TrainHist, e.Net.N(), e.Slot, 0, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Estimate(observed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4b_GRMC(b *testing.B) {
	e := env(b)
	observed := benchObserved(b)
	g := baselines.NewGRMC(e.Net.Graph(), e.TrainHist, e.Slot, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Estimate(observed); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 5: RTF training convergence vs network size ----------------------

func BenchmarkFig5_TrainingConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(experiments.Small(), []int{20, 40}, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 6: gMission -------------------------------------------------------

func BenchmarkFig6_GMission(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(experiments.Small(), []int{10, 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md) ----------------------------------------------------

// Path-correlation transform: the paper's reciprocal heuristic (Eq. 9) vs the
// exact −log transform.
func BenchmarkAblate_CorrNegLog(b *testing.B) {
	e := env(b)
	view := e.Sys.Model().At(e.Slot)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := corr.NewOracle(e.Net.Graph(), view, corr.NegLog)
		for _, q := range e.Query {
			o.CorrRow(q)
		}
	}
}

func BenchmarkAblate_CorrReciprocal(b *testing.B) {
	e := env(b)
	view := e.Sys.Model().At(e.Slot)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := corr.NewOracle(e.Net.Graph(), view, corr.Reciprocal)
		for _, q := range e.Query {
			o.CorrRow(q)
		}
	}
}

// CCD μ updates: exact coordinate maximization vs the paper's λ=0.1 gradient
// steps (Fig. 5 protocol), iterations to the same tolerance.
func BenchmarkAblate_CCDExactMu(b *testing.B) {
	benchCCD(b, false)
}

func BenchmarkAblate_CCDGradientMu(b *testing.B) {
	benchCCD(b, true)
}

func benchCCD(b *testing.B, gradient bool) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := rtf.New(e.Net)
		if err := rtf.FitMoments(m, e.TrainHist, 1); err != nil {
			b.Fatal(err)
		}
		for r := 0; r < e.Net.N(); r++ {
			m.SetMu(e.Slot, r, 1+float64(r%7))
		}
		b.StartTimer()
		opt := rtf.CCDOptions{
			Lambda: 0.1, MaxIters: 4000, Tol: 0.5, Window: 1,
			UpdateMu: true, GradientMu: gradient,
		}
		stats, err := rtf.RefineCCD(m, e.Net, e.TrainHist, []tslot.Slot{e.Slot}, opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(stats[0].Iterations), "iters")
	}
}

// Parallel CCD across slots (the embarrassing axis of the paper's parallel
// coordinate descent reference [31]).
func BenchmarkAblate_CCDSequentialSlots(b *testing.B) {
	benchCCDSlots(b, false)
}

func BenchmarkAblate_CCDParallelSlots(b *testing.B) {
	benchCCDSlots(b, true)
}

func benchCCDSlots(b *testing.B, parallel bool) {
	e := env(b)
	slots := make([]tslot.Slot, 16)
	for i := range slots {
		slots[i] = tslot.Slot(i * 18)
	}
	m := rtf.New(e.Net)
	if err := rtf.FitMoments(m, e.TrainHist, 1); err != nil {
		b.Fatal(err)
	}
	opt := rtf.DefaultCCD()
	opt.MaxIters = 10
	opt.Tol = 1e-12 // force the full sweep count for a stable comparison
	opt.Parallel = parallel
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rtf.RefineCCD(m, e.Net, e.TrainHist, slots, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Concurrent query throughput -----------------------------------------------
//
// BenchmarkConcurrentQueries measures the singleflight oracle under load:
// 1/4/16 parallel clients issue OCS selection queries against ONE System
// while the active slot advances every slotGroup queries (the live-traffic
// pattern: every client asks about "now", and "now" moves). `make
// bench-concurrent` runs this suite; serving throughput end to end is
// measured by the benchmark in bench/.

const (
	benchSlotGroup = 64 // queries served before the active slot advances
	benchSlotCount = 48 // distinct slots the workload cycles through
)

func concurrentQueryBench(b *testing.B, sys *core.System, query, workerRoads []int, clients int) {
	b.Helper()
	var next atomic.Int64
	var failed atomic.Bool
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) || failed.Load() {
					return
				}
				slot := tslot.Slot(int(i/benchSlotGroup) % benchSlotCount * 6)
				if _, err := sys.Select(context.Background(), core.SelectRequest{
					Slot: slot, Roads: query, WorkerRoads: workerRoads,
					Budget: 20, Theta: 0.92, Selector: core.Hybrid, Seed: i,
				}); err != nil {
					failed.Store(true)
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

func BenchmarkConcurrentQueries(b *testing.B) {
	e := env(b)
	pool := crowd.PlaceEverywhere(e.Net)
	workerRoads := pool.Roads()
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			// The default LRU covers a full day (288 slots), so the 48-slot
			// cycle stays resident and the benchmark isolates the per-lookup
			// hot path; LRU churn is stressed separately in
			// TestConcurrentQueryMixedSlots.
			sys, err := core.NewFromModel(e.Net, e.Sys.Model(), core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			concurrentQueryBench(b, sys, e.Query, workerRoads, clients)
		})
	}
}

// BenchmarkConcurrentPipeline runs the full online pipeline (OCS → probe →
// GSP) under concurrency, for the end-to-end view of the same trajectory.
func BenchmarkConcurrentPipeline(b *testing.B) {
	e := env(b)
	pool := crowd.PlaceEverywhere(e.Net)
	day := e.EvalDays[0]
	for _, clients := range []int{1, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			sys, err := core.NewFromModel(e.Net, e.Sys.Model(), core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			var next atomic.Int64
			var failed atomic.Bool
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) || failed.Load() {
							return
						}
						slot := tslot.Slot(int(i/benchSlotGroup)%benchSlotCount + 60)
						_, err := sim.RunQuery(context.Background(), sys.Pin(nil), e.Net, sim.QueryRequest{
							Slot: slot, Roads: e.Query, Budget: 20, Theta: 0.92,
							Workers: pool, Seed: i + 1,
							Truth: func(r int) float64 { return e.Hist.At(day, slot, r) },
						})
						if err != nil {
							failed.Store(true)
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkOracleRowThroughput isolates the row-serving hot path: all
// clients read correlations from one slot oracle (hot cache, lock-free).
func BenchmarkOracleRowThroughput(b *testing.B) {
	e := env(b)
	view := e.Sys.Model().At(e.Slot)
	for _, clients := range []int{1, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			o := corr.NewOracle(e.Net.Graph(), view, corr.NegLog)
			n := e.Net.N()
			var next atomic.Int64
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						src := int(i) % n
						row := o.CorrRow(src)
						_ = row[(src+c)%n]
					}
				}(c)
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
		})
	}
}

// --- Substrate micro-benches ----------------------------------------------------

func BenchmarkSubstrate_FitMomentsSlot(b *testing.B) {
	e := env(b)
	m := rtf.New(e.Net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One full moment fit covers all 288 slots; report per fit.
		if err := rtf.FitMoments(m, e.TrainHist, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrate_GenerateDay(b *testing.B) {
	net := network.Synthetic(network.SyntheticOptions{Roads: 100, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := speedgen.Generate(net, speedgen.Default(1, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrate_OracleRow(b *testing.B) {
	e := env(b)
	view := e.Sys.Model().At(e.Slot)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := corr.NewOracle(e.Net.Graph(), view, corr.NegLog)
		o.CorrRow(rng.Intn(e.Net.N()))
	}
}
