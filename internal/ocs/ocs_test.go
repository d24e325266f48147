package ocs

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/corr"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/rtf"
)

// pathProblem builds an OCS instance on a path graph with the given edge ρs,
// uniform σ = 1, and unit costs unless overridden.
func pathProblem(t *testing.T, rhos []float64) (*Problem, *rtf.Model) {
	t.Helper()
	n := len(rhos) + 1
	g := graph.Path(n)
	net, err := network.New(g, make([]network.Road, n))
	if err != nil {
		t.Fatal(err)
	}
	m := rtf.New(net)
	for i, r := range rhos {
		m.SetRho(0, i, i+1, r)
	}
	sigma := make([]float64, n)
	costs := make([]int, n)
	for i := range sigma {
		sigma[i] = 1
		costs[i] = 1
	}
	p := &Problem{
		Costs:  costs,
		Budget: 2,
		Theta:  1,
		Sigma:  sigma,
		Oracle: corr.NewOracle(g, m.At(0), corr.NegLog),
	}
	return p, m
}

func TestValidate(t *testing.T) {
	p, _ := pathProblem(t, []float64{0.5, 0.5})
	p.Query = []int{0}
	p.Workers = []int{1, 2}
	if err := p.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Problem)
	}{
		{"nil oracle", func(q *Problem) { q.Oracle = nil }},
		{"zero budget", func(q *Problem) { q.Budget = 0 }},
		{"theta zero", func(q *Problem) { q.Theta = 0 }},
		{"theta above 1", func(q *Problem) { q.Theta = 1.5 }},
		{"theta NaN", func(q *Problem) { q.Theta = math.NaN() }},
		{"empty query", func(q *Problem) { q.Query = nil }},
		{"query out of range", func(q *Problem) { q.Query = []int{99} }},
		{"worker out of range", func(q *Problem) { q.Workers = []int{-1} }},
		{"duplicate worker", func(q *Problem) { q.Workers = []int{1, 1} }},
		{"bad cost", func(q *Problem) { q.Costs[1] = 0 }},
		{"cost len", func(q *Problem) { q.Costs = q.Costs[:1] }},
	}
	for _, c := range cases {
		q := *p
		q.Costs = append([]int(nil), p.Costs...)
		q.Query = append([]int(nil), p.Query...)
		q.Workers = append([]int(nil), p.Workers...)
		c.mutate(&q)
		if err := q.Validate(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestSolversRejectInvalid(t *testing.T) {
	p, _ := pathProblem(t, []float64{0.5})
	p.Query = []int{0}
	p.Budget = 0
	if _, err := RatioGreedy(p); err == nil {
		t.Error("RatioGreedy accepted invalid problem")
	}
	if _, err := ObjectiveGreedy(p); err == nil {
		t.Error("ObjectiveGreedy accepted invalid problem")
	}
	if _, err := HybridGreedy(p); err == nil {
		t.Error("HybridGreedy accepted invalid problem")
	}
	if _, err := Random(p, rand.New(rand.NewSource(1))); err == nil {
		t.Error("Random accepted invalid problem")
	}
	if _, err := Exhaustive(p); err == nil {
		t.Error("Exhaustive accepted invalid problem")
	}
}

func TestObjectiveAndFeasible(t *testing.T) {
	p, _ := pathProblem(t, []float64{0.9, 0.8})
	p.Query = []int{0}
	p.Workers = []int{1, 2}
	if got := p.Objective([]int{1}); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("Objective({1}) = %v", got)
	}
	if got := p.Objective([]int{2}); math.Abs(got-0.72) > 1e-12 {
		t.Errorf("Objective({2}) = %v", got)
	}
	if got := p.Objective(nil); got != 0 {
		t.Errorf("Objective(∅) = %v", got)
	}
	if !p.Feasible([]int{1, 2}) {
		t.Error("budget-2 selection of two unit-cost roads infeasible")
	}
	p.Budget = 1
	if p.Feasible([]int{1, 2}) {
		t.Error("over-budget selection feasible")
	}
	if p.Feasible([]int{0}) {
		t.Error("non-worker road feasible")
	}
	p.Budget = 2
	p.Theta = 0.5
	if p.Feasible([]int{1, 2}) { // corr(1,2)=0.8 > 0.5
		t.Error("redundant pair feasible")
	}
}

// Example 1 of the paper: Ratio-Greedy can be arbitrarily bad; Hybrid-Greedy
// recovers via Objective-Greedy.
func TestWorstCaseExample1(t *testing.T) {
	// Path r1(0) — r3(1) — r2(2); query {1}; ρ(0,1)=0.2, ρ(1,2)=0.9.
	p, _ := pathProblem(t, []float64{0.2, 0.9})
	p.Query = []int{1}
	p.Workers = []int{0, 2}
	p.Costs[0] = 1
	p.Costs[2] = 10
	p.Budget = 10

	ratio, err := RatioGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ratio.Value-0.2) > 1e-12 {
		t.Errorf("RatioGreedy value = %v, want 0.2 (picks the cheap weak road)", ratio.Value)
	}
	obj, err := ObjectiveGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(obj.Value-0.9) > 1e-12 {
		t.Errorf("ObjectiveGreedy value = %v, want 0.9", obj.Value)
	}
	hyb, err := HybridGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hyb.Value-0.9) > 1e-12 {
		t.Errorf("HybridGreedy value = %v, want 0.9", hyb.Value)
	}
	if len(hyb.Roads) != 1 || hyb.Roads[0] != 2 || hyb.Cost != 10 {
		t.Errorf("HybridGreedy solution = %+v", hyb)
	}
}

func TestBudgetRespected(t *testing.T) {
	p, _ := pathProblem(t, []float64{0.9, 0.8, 0.7, 0.6})
	p.Query = []int{0}
	p.Workers = []int{1, 2, 3, 4}
	p.Costs = []int{1, 3, 2, 4, 2}
	p.Budget = 5
	for name, solve := range map[string]func(*Problem) (Solution, error){
		"ratio":  RatioGreedy,
		"obj":    ObjectiveGreedy,
		"hybrid": HybridGreedy,
	} {
		sol, err := solve(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.Cost > p.Budget {
			t.Errorf("%s exceeded budget: %+v", name, sol)
		}
		if !p.Feasible(sol.Roads) {
			t.Errorf("%s produced infeasible solution %+v", name, sol)
		}
	}
}

func TestRedundancyConstraint(t *testing.T) {
	// Chain with very high ρ everywhere: with θ = 0.5, no two selected roads
	// may be strongly connected.
	p, _ := pathProblem(t, []float64{0.95, 0.95, 0.95, 0.95, 0.95})
	p.Query = []int{0}
	p.Workers = []int{1, 2, 3, 4, 5}
	p.Budget = 5
	p.Theta = 0.5
	sol, err := HybridGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(sol.Roads); i++ {
		for j := i + 1; j < len(sol.Roads); j++ {
			if c := p.Oracle.Corr(sol.Roads[i], sol.Roads[j]); c > p.Theta {
				t.Errorf("selected pair (%d,%d) corr %v > θ", sol.Roads[i], sol.Roads[j], c)
			}
		}
	}
	// 0.95^2 ≈ 0.9 > 0.5, 0.95^3 ≈ 0.857 > 0.5, 0.95^4 ≈ 0.81, so at most
	// one road is selectable here besides... all pairs on the chain exceed
	// θ; exactly one road must be chosen.
	if len(sol.Roads) != 1 {
		t.Errorf("expected single selectable road, got %v", sol.Roads)
	}
}

func TestTrivialCaseAllWorkers(t *testing.T) {
	p, _ := pathProblem(t, []float64{0.9, 0.8})
	p.Query = []int{0}
	p.Workers = []int{1, 2}
	p.Budget = 5 // ≥ |R^w| with unit costs
	p.Theta = 1
	sol, err := HybridGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Roads) != 2 {
		t.Errorf("trivial case should select all workers, got %v", sol.Roads)
	}
}

func TestTrivialCaseBestPerQuery(t *testing.T) {
	// |R^q| = 1 < K = 2, unit costs, θ = 1: pick the single best worker road
	// per query road.
	p, _ := pathProblem(t, []float64{0.9, 0.8, 0.7})
	p.Query = []int{0}
	p.Workers = []int{1, 2, 3}
	p.Budget = 2
	sol, err := HybridGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Roads) != 1 || sol.Roads[0] != 1 {
		t.Errorf("trivial best-per-query: %v", sol.Roads)
	}
	if math.Abs(sol.Value-0.9) > 1e-12 {
		t.Errorf("value = %v", sol.Value)
	}
}

func TestRandomBaseline(t *testing.T) {
	p, _ := pathProblem(t, []float64{0.9, 0.8, 0.7, 0.6})
	p.Query = []int{0}
	p.Workers = []int{1, 2, 3, 4}
	p.Budget = 2
	rng := rand.New(rand.NewSource(5))
	sol, err := Random(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost > p.Budget || !p.Feasible(sol.Roads) {
		t.Errorf("random produced infeasible %+v", sol)
	}
	if len(sol.Roads) != 2 {
		t.Errorf("random should fill the unit-cost budget: %v", sol.Roads)
	}
}

func TestExhaustiveSmall(t *testing.T) {
	p, _ := pathProblem(t, []float64{0.2, 0.9})
	p.Query = []int{1}
	p.Workers = []int{0, 2}
	p.Costs[0] = 1
	p.Costs[2] = 10
	p.Budget = 10
	sol, err := Exhaustive(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Value-0.9) > 1e-12 {
		t.Errorf("exhaustive optimum = %v, want 0.9", sol.Value)
	}
}

func TestExhaustiveRejectsLarge(t *testing.T) {
	net := network.Synthetic(network.SyntheticOptions{Roads: 40, Seed: 1})
	m := rtf.New(net)
	sigma := make([]float64, 40)
	costs := make([]int, 40)
	workers := make([]int, 30)
	for i := range sigma {
		sigma[i], costs[i] = 1, 1
	}
	for i := range workers {
		workers[i] = i
	}
	p := &Problem{
		Query: []int{35}, Workers: workers, Costs: costs, Budget: 3, Theta: 1,
		Sigma: sigma, Oracle: corr.NewOracle(net.Graph(), m.At(0), corr.NegLog),
	}
	if _, err := Exhaustive(p); err == nil {
		t.Error("exhaustive accepted 30 workers")
	}
}

// randomInstance builds a random small OCS instance on a synthetic network.
func randomInstance(seed int64, nWorkers int) *Problem {
	net := network.Synthetic(network.SyntheticOptions{Roads: 30, Seed: seed})
	m := rtf.New(net)
	rng := rand.New(rand.NewSource(seed + 1000))
	for _, e := range m.Edges() {
		m.SetRho(0, e[0], e[1], 0.1+0.85*rng.Float64())
	}
	sigma := make([]float64, 30)
	costs := make([]int, 30)
	for i := range sigma {
		sigma[i] = 0.5 + 5*rng.Float64()
		costs[i] = 1 + rng.Intn(5)
	}
	perm := rng.Perm(30)
	workers := perm[:nWorkers]
	query := perm[nWorkers : nWorkers+8]
	return &Problem{
		Query:   query,
		Workers: workers,
		Costs:   costs,
		Budget:  6 + rng.Intn(8),
		Theta:   0.92,
		Sigma:   sigma,
		Oracle:  corr.NewOracle(net.Graph(), m.At(0), corr.NegLog),
	}
}

// randomLargeInstance builds a seeded random OCS instance over a synthetic
// network of 40–89 roads: random ρ and σ, random query/worker subsets, costs,
// budget and θ.
func randomLargeInstance(tb testing.TB, seed int64) *Problem {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	roads := 40 + rng.Intn(50)
	net := network.Synthetic(network.SyntheticOptions{Roads: roads, Seed: seed, CostMax: 1 + rng.Intn(8)})
	m := rtf.New(net)
	for _, e := range m.Edges() {
		m.SetRho(0, e[0], e[1], 0.1+0.89*rng.Float64())
		m.SetSigma(0, e[0], 0.5+10*rng.Float64())
	}
	perm := rng.Perm(roads)
	nq := 4 + rng.Intn(12)
	nw := 10 + rng.Intn(roads-10)
	view := m.At(0)
	return &Problem{
		Query:   append([]int(nil), perm[:nq]...),
		Workers: append([]int(nil), rng.Perm(roads)[:nw]...),
		Costs:   net.Costs(),
		Budget:  5 + rng.Intn(40),
		Theta:   0.5 + 0.45*rng.Float64(),
		Sigma:   view.Sigma,
		Oracle:  corr.NewOracle(net.Graph(), view, corr.NegLog),
	}
}

// Hybrid-Greedy must stay within its proven approximation bound of the exact
// optimum (Theorem 2) — empirically it is far closer.
func TestApproximationRatio(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		p := randomInstance(seed, 14)
		opt, err := Exhaustive(p)
		if err != nil {
			t.Fatal(err)
		}
		hyb, err := HybridGreedy(p)
		if err != nil {
			t.Fatal(err)
		}
		if opt.Value <= 0 {
			continue
		}
		ratio := hyb.Value / opt.Value
		if ratio < ApproxRatioBound-1e-9 {
			t.Errorf("seed %d: hybrid/opt = %.4f below bound %.4f", seed, ratio, ApproxRatioBound)
		}
		if ratio > 1+1e-9 {
			t.Errorf("seed %d: hybrid beat the exact optimum?! %.4f", seed, ratio)
		}
	}
}

// Hybrid ≥ max(Ratio, Objective) by construction; VO grows with budget
// (Fig. 2 monotonicity).
func TestHybridDominatesAndMonotone(t *testing.T) {
	for seed := int64(30); seed < 40; seed++ {
		p := randomInstance(seed, 18)
		prev := -1.0
		for _, k := range []int{3, 6, 9, 12, 15} {
			q := *p
			q.Budget = k
			r, err := RatioGreedy(&q)
			if err != nil {
				t.Fatal(err)
			}
			o, err := ObjectiveGreedy(&q)
			if err != nil {
				t.Fatal(err)
			}
			h, err := HybridGreedy(&q)
			if err != nil {
				t.Fatal(err)
			}
			if h.Value+1e-9 < r.Value || h.Value+1e-9 < o.Value {
				t.Errorf("seed %d K=%d: hybrid %v below ratio %v / obj %v",
					seed, k, h.Value, r.Value, o.Value)
			}
			if h.Value+1e-9 < prev {
				t.Errorf("seed %d: VO not monotone in budget at K=%d (%v < %v)",
					seed, k, h.Value, prev)
			}
			prev = h.Value
		}
	}
}

// Solution.Value must equal Objective(Roads) for every solver.
func TestValueConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for seed := int64(50); seed < 56; seed++ {
		p := randomInstance(seed, 16)
		solvers := map[string]func() (Solution, error){
			"ratio":  func() (Solution, error) { return RatioGreedy(p) },
			"obj":    func() (Solution, error) { return ObjectiveGreedy(p) },
			"hybrid": func() (Solution, error) { return HybridGreedy(p) },
			"random": func() (Solution, error) { return Random(p, rng) },
		}
		for name, solve := range solvers {
			sol, err := solve()
			if err != nil {
				t.Fatal(err)
			}
			if want := p.Objective(sol.Roads); math.Abs(sol.Value-want) > 1e-9 {
				t.Errorf("%s seed %d: Value %v != Objective %v", name, seed, sol.Value, want)
			}
			if !p.Feasible(sol.Roads) {
				t.Errorf("%s seed %d: infeasible roads %v", name, seed, sol.Roads)
			}
		}
	}
}

// TestFeasibleUsesHoistedWorkerSet checks Feasible both on validated
// instances (hoisted set) and standalone (local build), and that the
// redundancy check still rejects over-correlated pairs.
func TestFeasibleUsesHoistedWorkerSet(t *testing.T) {
	p := randomLargeInstance(t, 42)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.workerSet == nil {
		t.Fatal("Validate did not hoist the worker set")
	}
	if len(p.workerSet) != len(p.Workers) {
		t.Fatalf("worker set has %d entries for %d workers", len(p.workerSet), len(p.Workers))
	}
	// Any single worker road within budget is feasible.
	w0 := p.Workers[0]
	if p.Costs[w0] <= p.Budget && !p.Feasible([]int{w0}) {
		t.Errorf("single worker road %d not feasible", w0)
	}
	// A non-worker road is rejected.
	nonWorker := -1
	for r := 0; r < len(p.Sigma); r++ {
		if !p.workerSet[r] {
			nonWorker = r
			break
		}
	}
	if nonWorker >= 0 && p.Feasible([]int{nonWorker}) {
		t.Errorf("non-worker road %d accepted", nonWorker)
	}
	// Standalone (unvalidated) Problem agrees.
	q := *p
	q.workerSet = nil
	for _, set := range [][]int{{w0}, {nonWorker}, p.Workers[:2]} {
		if got, want := q.Feasible(set), p.Feasible(set); got != want {
			t.Errorf("standalone Feasible(%v) = %v, validated = %v", set, got, want)
		}
	}
}
