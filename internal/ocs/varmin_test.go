package ocs

import (
	"math"
	"testing"
)

// TestVarianceReduction pins the ObjVarianceMin objective on a hand-checked
// path: query {0}, σ_0 = 1, candidates at graph distance 1 and 2.
func TestVarianceReduction(t *testing.T) {
	p, _ := pathProblem(t, []float64{0.8, 0.5})
	p.Query = []int{0}
	p.Workers = []int{1, 2}
	p.Mode = ObjVarianceMin
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	c1 := p.Oracle.Corr(0, 1)
	c2 := p.Oracle.Corr(0, 2)
	if got, want := p.VarianceReduction([]int{1}), c1*c1; math.Abs(got-want) > 1e-12 {
		t.Fatalf("VarianceReduction({1}) = %v, want %v", got, want)
	}
	// The best proxy wins: adding the weaker road 2 changes nothing.
	if got, want := p.VarianceReduction([]int{1, 2}), c1*c1; math.Abs(got-want) > 1e-12 {
		t.Fatalf("VarianceReduction({1,2}) = %v, want %v", got, want)
	}
	if got, want := p.Objective([]int{2}), c2*c2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Objective in varmin mode = %v, want %v", got, want)
	}
}

// TestVarianceModePrefersHighSigma: with equal correlations, the varmin
// objective weights query roads by σ² and must probe the proxy of the
// higher-variance query road first — the uncertainty-first choice the
// correlation objective (σ-weighted) can get wrong.
func TestVarianceModeSelectsForVariance(t *testing.T) {
	// Path 0-1-2-3: query {0, 3}, workers {1, 2}, budget 1.
	// corr(0,1)=0.9; corr(2,3)=0.6. σ_0 = 1, σ_3 = 3.
	p, m := pathProblem(t, []float64{0.9, 0.1, 0.6})
	_ = m
	p.Query = []int{0, 3}
	p.Workers = []int{1, 2}
	p.Budget = 1
	p.Theta = 0.95
	p.Sigma[0], p.Sigma[3] = 1, 3

	// Correlation objective: gain(1) ≈ σ_0·0.9 + σ_3·corr(3,1);
	// varmin: gain(2) ≈ σ_3²·0.36 = 3.24 vs gain(1) ≈ 0.81 + tiny.
	p.Mode = ObjVarianceMin
	sol, err := HybridGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Roads) != 1 || sol.Roads[0] != 2 {
		t.Fatalf("varmin picked %v, want road 2 (covers the σ=3 query road)", sol.Roads)
	}
	if want := p.VarianceReduction(sol.Roads); sol.Value != want {
		t.Fatalf("solution value %v != VarianceReduction %v", sol.Value, want)
	}

	q := *p
	q.Mode = ObjCorrelation
	corrSol, err := HybridGreedy(&q)
	if err != nil {
		t.Fatal(err)
	}
	if q.VarianceReduction(corrSol.Roads) > p.VarianceReduction(sol.Roads)+1e-12 {
		t.Fatalf("correlation pick %v reduces more variance than varmin pick %v", corrSol.Roads, sol.Roads)
	}
}

// TestVarianceModeGreedyMatchesExhaustive: on small random instances the
// varmin greedy must stay within the hybrid approximation bound of the exact
// varmin optimum (the objective is still a monotone submodular max-coverage
// form, so Theorem 2's argument carries over).
func TestVarianceModeGreedyNearExhaustive(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		p := randomInstance(seed, 12)
		p.Mode = ObjVarianceMin
		opt, err := Exhaustive(p)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := HybridGreedy(p)
		if err != nil {
			t.Fatal(err)
		}
		if opt.Value <= 0 {
			continue
		}
		if ratio := sol.Value / opt.Value; ratio < ApproxRatioBound-1e-9 {
			t.Fatalf("seed %d: varmin hybrid %v / optimum %v = %v below bound %v",
				seed, sol.Value, opt.Value, ratio, ApproxRatioBound)
		}
		if !p.Feasible(sol.Roads) {
			t.Fatalf("seed %d: infeasible varmin selection %v", seed, sol.Roads)
		}
	}
}

// TestVarianceModeValueConsistency: the incremental greedy value must equal
// the from-scratch objective of the final set in varmin mode too.
func TestVarianceModeValueConsistency(t *testing.T) {
	for seed := int64(40); seed < 50; seed++ {
		p := randomInstance(seed, 16)
		p.Mode = ObjVarianceMin
		for name, solve := range map[string]func(*Problem) (Solution, error){
			"ratio": RatioGreedy, "objective": ObjectiveGreedy, "hybrid": HybridGreedy,
		} {
			sol, err := solve(p)
			if err != nil {
				t.Fatal(err)
			}
			if want := p.VarianceReduction(sol.Roads); math.Abs(sol.Value-want) > 1e-9 {
				t.Fatalf("seed %d %s: value %v != recomputed %v", seed, name, sol.Value, want)
			}
		}
	}
}

// TestModeValidation: unknown modes are rejected; mode strings name both.
func TestModeValidation(t *testing.T) {
	p, _ := pathProblem(t, []float64{0.5})
	p.Query = []int{0}
	p.Workers = []int{1}
	p.Mode = Mode(7)
	if err := p.Validate(); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if ObjCorrelation.String() != "Correlation" || ObjVarianceMin.String() != "VarianceMin" {
		t.Fatalf("mode strings: %q %q", ObjCorrelation, ObjVarianceMin)
	}
}

// TestCorrelationModeUnchanged: the default mode's selections and values are
// untouched by the mode machinery (weights σ, scores corr — the pre-PR
// float operations in the same order).
func TestCorrelationModeUnchanged(t *testing.T) {
	for seed := int64(60); seed < 70; seed++ {
		p := randomInstance(seed, 14)
		sol, err := HybridGreedy(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceValue(p, sol.Roads); math.Abs(sol.Value-want) > 1e-9 {
			t.Fatalf("seed %d: correlation-mode value %v != reference Eq. (13) %v", seed, sol.Value, want)
		}
	}
}
