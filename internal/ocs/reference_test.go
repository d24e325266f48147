package ocs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/corr"
	"repro/internal/obs"
)

// refState is the reference greedy's dense state: every query road's
// complete correlation row, and best[qi] = the best per-query score achieved
// by R^c so far — corr(qi, R^c) under ObjCorrelation, corr²(qi, R^c) under
// the variance modes — so a candidate's marginal gain is
// Σ w_qi · max(0, score(qi, r) − best[qi]), where w is σ, σ² or w·σ² to match.
type refState struct {
	p        *Problem
	rows     [][]float64
	best     []float64
	w        []float64
	squared  bool
	selected []int
	red      *corr.Redundancy
	blocked  []bool
	cost     int
}

func newGreedyState(p *Problem) *refState {
	s := &refState{
		p:       p,
		rows:    make([][]float64, len(p.Query)),
		best:    make([]float64, len(p.Query)),
		w:       make([]float64, len(p.Query)),
		squared: p.Mode != ObjCorrelation,
		blocked: make([]bool, len(p.Sigma)),
	}
	for qi, q := range p.Query {
		s.rows[qi] = p.Oracle.CorrRow(q)
		switch p.Mode {
		case ObjVarianceMin:
			s.w[qi] = p.Sigma[q] * p.Sigma[q]
		case ObjRouteVar:
			s.w[qi] = p.Weights[q] * p.Sigma[q] * p.Sigma[q]
		default:
			s.w[qi] = p.Sigma[q]
		}
	}
	return s
}

func (s *refState) score(qi, r int) float64 {
	c := s.rows[qi][r]
	if s.squared {
		return c * c
	}
	return c
}

// gain returns the objective increment of adding road r.
func (s *refState) gain(r int) float64 {
	var g float64
	for qi := range s.p.Query {
		if c := s.score(qi, r); c > s.best[qi] {
			g += s.w[qi] * (c - s.best[qi])
		}
	}
	return g
}

// redundant reports whether corr(sel, r) > θ for some selected road sel.
func (s *refState) redundant(r int) bool { return s.blocked[r] }

// add selects r and blocks what the θ-redundancy query returns, which
// corr's tests check against complete rows.
func (s *refState) add(r int) {
	s.selected = append(s.selected, r)
	if s.red == nil {
		s.red = s.p.Oracle.Redundancy(s.p.Theta)
	}
	for _, j := range s.red.Above(r) {
		s.blocked[j] = true
	}
	s.cost += s.p.Costs[r]
	for qi := range s.p.Query {
		if c := s.score(qi, r); c > s.best[qi] {
			s.best[qi] = c
		}
	}
}

func (s *refState) rank(r int, byRatio bool) float64 {
	g := s.gain(r)
	if byRatio {
		g /= float64(s.p.Costs[r])
	}
	return g
}

// referenceValue is the instance's objective of set computed from complete
// rows, in the summation order every solver's value uses.
func referenceValue(p *Problem, set []int) float64 {
	squared := p.Mode != ObjCorrelation
	return p.sum(p.Mode, p.Weights, func(_, q int) float64 {
		row, best := p.Oracle.CorrRow(q), 0.0
		for _, r := range set {
			c := row[r]
			if squared {
				c *= c
			}
			if c > best {
				best = c
			}
		}
		return best
	})
}

// eagerGreedy is the textbook loop of Alg. 2/3, the reference the lazy
// greedy must reproduce: every round ranks every remaining candidate on
// complete rows and takes the best, ties toward the smaller road id.
func eagerGreedy(p *Problem, byRatio bool) Solution {
	s := newGreedyState(p)
	remaining := append([]int(nil), p.Workers...)
	for {
		best, bestRank := -1, math.Inf(-1)
		for i, r := range remaining {
			if r < 0 {
				continue
			}
			if p.Costs[r] > p.Budget-s.cost || s.redundant(r) {
				remaining[i] = -1
				continue
			}
			if g := s.rank(r, byRatio); g > bestRank || (g == bestRank && r < remaining[best]) {
				best, bestRank = i, g
			}
		}
		if best < 0 {
			break
		}
		s.add(remaining[best])
		remaining[best] = -1
	}
	sort.Ints(s.selected)
	return Solution{Roads: s.selected, Value: referenceValue(p, s.selected), Cost: s.cost}
}

// eagerHybrid is Alg. 4 over the eager passes, with Remark 2's shortcut
// under ObjCorrelation only.
func eagerHybrid(p *Problem) Solution {
	if p.Mode == ObjCorrelation {
		if sol, ok := trivialCase(p); ok {
			sol.Value = referenceValue(p, sol.Roads)
			return sol
		}
	}
	ratio, obj := eagerGreedy(p, true), eagerGreedy(p, false)
	if ratio.Value >= obj.Value {
		return ratio
	}
	return obj
}

// greedySolvers pairs each exported greedy with its eager reference.
var greedySolvers = []struct {
	name string
	run  func(*Problem) (Solution, error)
	ref  func(*Problem) Solution
}{
	{"ratio", RatioGreedy, func(p *Problem) Solution { return eagerGreedy(p, true) }},
	{"objective", ObjectiveGreedy, func(p *Problem) Solution { return eagerGreedy(p, false) }},
	{"hybrid", HybridGreedy, eagerHybrid},
}

func sameSolution(a, b Solution) bool {
	if a.Value != b.Value || a.Cost != b.Cost || len(a.Roads) != len(b.Roads) {
		return false
	}
	for i := range a.Roads {
		if a.Roads[i] != b.Roads[i] {
			return false
		}
	}
	return true
}

// checkAgainstReference solves p with every greedy and fails t unless each
// returns its reference's roads, value and cost bit for bit, and counts one
// solve and the reference's roads into Problem.Metrics.
func checkAgainstReference(t *testing.T, label string, p *Problem) {
	t.Helper()
	for _, sv := range greedySolvers {
		q := *p
		q.Metrics = &obs.OCSMetrics{Solves: &obs.Counter{}, Selected: &obs.Counter{}}
		got, err := sv.run(&q)
		if err != nil {
			t.Fatalf("%s %s: %v", label, sv.name, err)
		}
		want := sv.ref(p)
		if !sameSolution(got, want) {
			t.Fatalf("%s %s: lazy %+v != eager %+v", label, sv.name, got, want)
		}
		if s, n := q.Metrics.Solves.Value(), q.Metrics.Selected.Value(); s != 1 || n != uint64(len(want.Roads)) {
			t.Fatalf("%s %s: metrics counted %d solves and %d roads, want 1 and %d", label, sv.name, s, n, len(want.Roads))
		}
	}
}

func TestLazyMatchesEagerWorstCase(t *testing.T) {
	p, _ := pathProblem(t, []float64{0.2, 0.9})
	p.Query = []int{1}
	p.Workers = []int{0, 2}
	p.Costs[0] = 1
	p.Costs[2] = 10
	p.Budget = 10
	checkAgainstReference(t, "example 1", p)
}

// Property: the greedy solvers return the eager reference's selection on
// random instances in every objective mode — with θ as drawn, and in Remark
// 2's regime (θ = 1, unit costs, K = 10 above |R^q| = 8), where only
// ObjCorrelation may take the shortcut. The corpus adds larger instances with
// drawn costs, budgets and θ.
func TestLazyMatchesEagerRandomInstances(t *testing.T) {
	modes := []Mode{ObjCorrelation, ObjVarianceMin, ObjRouteVar}
	withMode := func(p *Problem, mode Mode, seed int64) *Problem {
		p.Mode = mode
		if mode == ObjRouteVar {
			rng := rand.New(rand.NewSource(seed))
			p.Weights = make([]float64, len(p.Sigma))
			for _, q := range p.Query {
				p.Weights[q] = rng.Float64()
			}
		}
		return p
	}
	for seed := int64(0); seed < 40; seed++ {
		for _, mode := range modes {
			checkAgainstReference(t, "drawn θ", withMode(randomInstance(seed, 18), mode, seed))
			p := withMode(randomInstance(seed, 18), mode, seed)
			p.Theta, p.Budget = 1, 10
			for i := range p.Costs {
				p.Costs[i] = 1
			}
			checkAgainstReference(t, "θ = 1, unit costs", p)
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		for _, mode := range modes {
			checkAgainstReference(t, "large", withMode(randomLargeInstance(t, seed), mode, seed))
		}
	}
}

// The objective's marginal gains are non-increasing as the selection grows —
// the property lazy evaluation relies on.
func TestGainsNonIncreasing(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		p := randomInstance(seed, 15)
		s := newGreedyState(p)
		// Record initial gains, grow the selection greedily, re-check.
		initial := make(map[int]float64, len(p.Workers))
		for _, r := range p.Workers {
			initial[r] = s.gain(r)
		}
		sol, err := ObjectiveGreedy(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range sol.Roads {
			s.add(r)
		}
		for _, r := range p.Workers {
			if s.gain(r) > initial[r]+1e-9 {
				t.Fatalf("seed %d: gain of road %d increased after selection", seed, r)
			}
		}
	}
}

// TestParallelSharedOracle is the production configuration under
// -race: one cached oracle per slot serves every concurrent select. Each
// goroutine solves its own Problem (Validate writes the worker set) over one
// cold oracle, and every solve must match the eager reference, computed on a
// second copy of the instance with its own oracle.
func TestParallelSharedOracle(t *testing.T) {
	ref := randomLargeInstance(t, 7)
	want := make([]Solution, len(greedySolvers))
	for i, sv := range greedySolvers {
		want[i] = sv.ref(ref)
	}
	p := randomLargeInstance(t, 7)
	var wg sync.WaitGroup
	errs := make(chan string, 4*len(greedySolvers))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, sv := range greedySolvers {
				q := *p
				got, err := sv.run(&q)
				if err != nil {
					errs <- err.Error()
				} else if !sameSolution(got, want[i]) {
					errs <- sv.name + ": concurrent solve diverged on the shared oracle"
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
