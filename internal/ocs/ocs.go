// Package ocs solves the Optimal Crowdsourced-roads Selection problem of
// CrowdRTSE (§V): pick R^c ⊆ R^w maximizing the periodicity-weighted
// correlation with the queried roads (Eq. 13),
//
//	max  Σ_{i∈R^q} σ_i^t · corr^t(r_i, R^c)
//	s.t. Σ_{r∈R^c} c_r ≤ K                (budget feasibility)
//	     corr^t(r_i, r_j) ≤ θ ∀ r_i,r_j∈R^c (redundancy)
//
// The problem is NP-hard (Theorem 1, reduction from Maximum k-Coverage).
// Solvers provided: Ratio-Greedy (Alg. 2, linear time, unbounded worst
// case), Objective-Greedy (Alg. 3), Hybrid-Greedy (Alg. 4, approximation
// ratio (1−1/e)/2, Theorem 2), a Random baseline used by the paper's Fig. 3
// column (c), and an exact exhaustive solver for small instances, used to
// validate the approximation ratio empirically. The greedy solvers evaluate
// marginal gains lazily (see runGreedy); they run on the calling goroutine.
package ocs

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/corr"
	"repro/internal/obs"
)

// Mode selects the objective a solve optimizes. Both modes share the same
// feasibility constraints (budget, θ-redundancy, R^w membership) and the
// same greedy machinery — only the per-candidate score changes.
type Mode uint8

const (
	// ObjCorrelation is Eq. 13, the paper's objective: maximize the
	// periodicity-weighted correlation Σ σ_qi · corr(qi, R^c). The default.
	ObjCorrelation Mode = iota
	// ObjVarianceMin maximizes the total posterior-variance reduction over
	// the queried roads, Σ σ_qi² · max_{r∈R^c} corr²(qi, r): under Gaussian
	// conditioning, observing the best single proxy r shrinks road q's
	// variance from σ_q² to σ_q²·(1 − ρ²), so this objective picks the probe
	// set that maximally shrinks Σ posterior variance at equal budget —
	// uncertainty-first selection for calibrated serving (PR 9).
	ObjVarianceMin
	// ObjRouteVar is ObjVarianceMin with per-road importance weights:
	// Σ w_qi · σ_qi² · max_{r∈R^c} corr²(qi, r). For a route-level ETA the
	// weight is the squared travel-time sensitivity of the road on the
	// requested path ((∂τ/∂v)² = (60·L/v²)², delta method), so the greedy
	// spends probe budget where conditioning most shrinks the ETA variance —
	// a long, slow, uncertain segment outranks a short certain one even at
	// equal correlation. Requires Problem.Weights.
	ObjRouteVar
)

// String names the mode for logs and reports.
func (m Mode) String() string {
	switch m {
	case ObjVarianceMin:
		return "VarianceMin"
	case ObjRouteVar:
		return "RouteVar"
	}
	return "Correlation"
}

// Problem is one OCS instance. Sigma is indexed by road id (the RTF view's
// Sigma slice); Costs likewise. Oracle supplies corr^t.
type Problem struct {
	Query   []int   // R^q, the queried roads
	Workers []int   // R^w, roads currently holding workers
	Costs   []int   // c_i per road id
	Budget  int     // K, total payment budget
	Theta   float64 // θ ∈ (0, 1], redundancy threshold
	Sigma   []float64
	Oracle  *corr.Oracle

	// Mode selects the objective: ObjCorrelation (Eq. 13, default),
	// ObjVarianceMin (total posterior-variance reduction), or ObjRouteVar
	// (weighted variance reduction; see Weights).
	Mode Mode

	// Weights holds the per-road importance weights of ObjRouteVar, indexed
	// by road id like Sigma and Costs. Entries must be non-negative; roads
	// off the requested route carry weight 0 and contribute nothing to the
	// objective. Ignored under the other modes.
	Weights []float64

	// Metrics, when non-nil, receives per-solve counters (invocations,
	// selected road count, solve latency). Instrumentation happens once per
	// exported solver call, never inside the greedy round loops, so the
	// solver hot path stays allocation- and atomic-free.
	Metrics *obs.OCSMetrics

	// workerSet is the hoisted R^w membership set, built once by Validate
	// so Feasible doesn't rebuild it per call.
	workerSet map[int]bool
}

// Validate checks the instance for structural errors.
func (p *Problem) Validate() error {
	if p.Oracle == nil {
		return fmt.Errorf("ocs: nil oracle")
	}
	if p.Budget <= 0 {
		return fmt.Errorf("ocs: budget %d must be positive", p.Budget)
	}
	if !(p.Theta > 0 && p.Theta <= 1) {
		return fmt.Errorf("ocs: θ = %v outside (0,1]", p.Theta)
	}
	if p.Mode > ObjRouteVar {
		return fmt.Errorf("ocs: unknown objective mode %d", p.Mode)
	}
	if p.Mode == ObjRouteVar {
		if len(p.Weights) != len(p.Sigma) {
			return fmt.Errorf("ocs: %d route weights for %d sigmas", len(p.Weights), len(p.Sigma))
		}
		for r, w := range p.Weights {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("ocs: route weight %v for road %d must be finite and non-negative", w, r)
			}
		}
	}
	if len(p.Query) == 0 {
		return fmt.Errorf("ocs: empty query")
	}
	n := len(p.Sigma)
	if len(p.Costs) != n {
		return fmt.Errorf("ocs: %d costs for %d sigmas", len(p.Costs), n)
	}
	for _, q := range p.Query {
		if q < 0 || q >= n {
			return fmt.Errorf("ocs: query road %d out of range", q)
		}
	}
	seen := make(map[int]bool, len(p.Workers))
	for _, w := range p.Workers {
		if w < 0 || w >= n {
			return fmt.Errorf("ocs: worker road %d out of range", w)
		}
		if p.Costs[w] <= 0 {
			return fmt.Errorf("ocs: worker road %d has non-positive cost %d", w, p.Costs[w])
		}
		if seen[w] {
			return fmt.Errorf("ocs: duplicate worker road %d", w)
		}
		seen[w] = true
	}
	// Hoist the R^w membership set: Feasible used to rebuild it on every
	// call; now it is constructed once per validated instance.
	p.workerSet = seen
	return nil
}

// Solution is a selected crowdsourced-road set with its objective value
// (Eq. 13) and total cost.
type Solution struct {
	Roads []int
	Value float64
	Cost  int
}

// Objective evaluates the instance's objective for an arbitrary candidate
// set: Eq. (13) under ObjCorrelation, total posterior-variance reduction
// under ObjVarianceMin.
func (p *Problem) Objective(set []int) float64 {
	switch p.Mode {
	case ObjVarianceMin:
		return p.VarianceReduction(set)
	case ObjRouteVar:
		return p.WeightedVarianceReduction(set, p.Weights)
	}
	return p.Oracle.WeightedCorr(p.Query, p.Sigma, set)
}

// VarianceReduction is the ObjVarianceMin objective for an arbitrary set:
// Σ_{qi} σ_qi² · max_{r∈set} corr²(qi, r) — how much total prior variance
// over the queried roads the set's best-proxy conditioning removes.
// Evaluable under either mode (the calibration ablation scores correlation
// selections on this axis too).
func (p *Problem) VarianceReduction(set []int) float64 {
	var total float64
	for _, q := range p.Query {
		row := p.Oracle.CorrRow(q)
		best := 0.0
		for _, r := range set {
			if c2 := row[r] * row[r]; c2 > best {
				best = c2
			}
		}
		total += p.Sigma[q] * p.Sigma[q] * best
	}
	return total
}

// WeightedVarianceReduction is the ObjRouteVar objective for an arbitrary
// set under explicit per-road weights (indexed by road id):
// Σ_{qi} w_qi · σ_qi² · max_{r∈set} corr²(qi, r). Like VarianceReduction it
// is evaluable regardless of the instance's mode, so the route-OCS ablation
// can score a correlation selection on the ETA-variance axis.
func (p *Problem) WeightedVarianceReduction(set []int, weights []float64) float64 {
	var total float64
	for _, q := range p.Query {
		wq := 0.0
		if q < len(weights) {
			wq = weights[q]
		}
		if wq == 0 {
			continue
		}
		row := p.Oracle.CorrRow(q)
		best := 0.0
		for _, r := range set {
			if c2 := row[r] * row[r]; c2 > best {
				best = c2
			}
		}
		total += wq * p.Sigma[q] * p.Sigma[q] * best
	}
	return total
}

// Feasible reports whether the set satisfies the budget and pairwise
// redundancy constraints (and is drawn from R^w). The worker membership set
// is hoisted into the Problem by Validate, and the pairwise redundancy check
// asks the oracle's θ-redundancy query once per member, computing no
// correlation row. A set of two or more roads is infeasible under a θ
// outside (0, 1].
func (p *Problem) Feasible(set []int) bool {
	allowed := p.workerSet
	if allowed == nil {
		// Unvalidated instance (Feasible called standalone): build locally
		// without publishing, so concurrent Feasible calls stay race-free.
		allowed = make(map[int]bool, len(p.Workers))
		for _, w := range p.Workers {
			allowed[w] = true
		}
	}
	cost := 0
	for _, r := range set {
		if !allowed[r] {
			return false
		}
		cost += p.Costs[r]
	}
	if cost > p.Budget {
		return false
	}
	if len(set) < 2 {
		return true
	}
	if !(p.Theta > 0 && p.Theta <= 1) {
		return false
	}
	red := p.Oracle.Redundancy(p.Theta)
	for i := 0; i < len(set)-1; i++ {
		above := red.Above(set[i])
		for _, r := range set[i+1:] {
			if slices.Contains(above, int32(r)) {
				return false
			}
		}
	}
	return true
}

// greedyState tracks the incremental objective during a greedy run:
// best[qi] = the best per-query score achieved by R^c so far — corr(qi, R^c)
// under ObjCorrelation, corr²(qi, R^c) under ObjVarianceMin — so a
// candidate's marginal gain is Σ w_qi · max(0, score(qi, r) − best[qi]) in
// O(|R^q|), where w is σ or σ² to match.
type greedyState struct {
	p    *Problem
	tab  *corr.Table
	best []float64
	// w[qi] is the query road's objective weight: σ under ObjCorrelation,
	// σ² under ObjVarianceMin, w·σ² under ObjRouteVar.
	w []float64
	// squared selects the corr² per-candidate score (both variance modes).
	squared  bool
	selected []int
	// red is this state's own θ-redundancy query handle; blocked[r] marks
	// every road it placed above θ of some selected road, so redundant() is
	// one index.
	red     *corr.Redundancy
	blocked []bool
	cost    int
}

func newGreedyState(p *Problem) *greedyState {
	s := &greedyState{
		p:       p,
		tab:     p.Oracle.BuildTable(p.Query),
		best:    make([]float64, len(p.Query)),
		w:       make([]float64, len(p.Query)),
		squared: p.Mode != ObjCorrelation,
		red:     p.Oracle.Redundancy(p.Theta),
		blocked: make([]bool, len(p.Sigma)),
	}
	for qi, q := range p.Query {
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

// score is the per-(query, candidate) contribution under the instance's
// mode: raw correlation, or squared correlation for variance reduction.
func (s *greedyState) score(qi, r int) float64 {
	c := s.tab.Corr(qi, r)
	if s.squared {
		return c * c
	}
	return c
}

// gain returns the objective increment of adding road r.
func (s *greedyState) gain(r int) float64 {
	var g float64
	for qi := range s.p.Query {
		if c := s.score(qi, r); c > s.best[qi] {
			g += s.w[qi] * (c - s.best[qi])
		}
	}
	return g
}

// redundant reports whether r violates the θ constraint against the current
// selection: corr(sel, r) > θ for some selected road sel.
func (s *greedyState) redundant(r int) bool { return s.blocked[r] }

// add selects r and blocks every road its θ-redundancy query returns.
func (s *greedyState) add(r int) {
	s.selected = append(s.selected, r)
	for _, j := range s.red.Above(r) {
		if int(j) < len(s.blocked) {
			s.blocked[j] = true
		}
	}
	s.cost += s.p.Costs[r]
	for qi := range s.p.Query {
		if c := s.score(qi, r); c > s.best[qi] {
			s.best[qi] = c
		}
	}
}

// rank is the greedy's ranking key for road r: its marginal gain, per unit
// of cost under Ratio-Greedy.
func (s *greedyState) rank(r int, byRatio bool) float64 {
	g := s.gain(r)
	if byRatio {
		g /= float64(s.p.Costs[r])
	}
	return g
}

// gainEntry is a lazy-greedy heap entry: a candidate road and its rank as of
// the given selection round.
type gainEntry struct {
	road  int
	score float64
	round int
}

// gainHeap orders entries by score, descending, then road id, ascending.
type gainHeap []gainEntry

func (h gainHeap) Len() int { return len(h) }
func (h gainHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].road < h[j].road
}
func (h gainHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// Push and Pop complete heap.Interface. runGreedy never calls them: it
// updates and removes the top in place, so no entry is boxed.
func (h *gainHeap) Push(x any) { *h = append(*h, x.(gainEntry)) }
func (h *gainHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// dropTop removes the top entry: the last entry moves to the root and sifts
// down.
func (h *gainHeap) dropTop() {
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	heap.Fix(h, 0)
}

// runGreedy executes the shared loop of Alg. 2/3 with lazy gain evaluation.
// byRatio ranks candidates by objective increment per unit cost
// (Ratio-Greedy) instead of the raw increment (Objective-Greedy).
//
// A road's marginal gain Σ_q w_q·max(0, score(q,r) − best_q) can only shrink
// as the selection grows (TestGainsNonIncreasing), so a heap entry ranked in
// an earlier round is an upper bound on its current rank. The loop refreshes
// a stale top in place; a top that is fresh outranks every other entry's
// bound and is the round's argmax, ties broken toward the smaller road id —
// the candidate the eager scan of every remaining road would pick. An
// unaffordable or θ-redundant top is dropped for good: the remaining budget
// only shrinks and redundancy never relaxes.
func runGreedy(p *Problem, byRatio bool) Solution {
	s := newGreedyState(p)
	h := make(gainHeap, len(p.Workers))
	for i, r := range p.Workers {
		h[i] = gainEntry{road: r, score: s.rank(r, byRatio)}
	}
	heap.Init(&h)
	// Once the remaining budget is below the cheapest worker's cost, every
	// entry left would only be dropped: stop instead.
	minCost := math.MaxInt
	for _, r := range p.Workers {
		minCost = min(minCost, p.Costs[r])
	}
	round := 0
	for len(h) > 0 && p.Budget-s.cost >= minCost {
		top := &h[0]
		switch {
		case p.Costs[top.road] > p.Budget-s.cost || s.redundant(top.road):
			h.dropTop()
		case top.round < round:
			top.score, top.round = s.rank(top.road, byRatio), round
			heap.Fix(&h, 0)
		default:
			s.add(top.road)
			round++
			h.dropTop()
		}
	}
	sort.Ints(s.selected)
	return Solution{Roads: s.selected, Value: p.Objective(s.selected), Cost: s.cost}
}

// solveStart returns the instrumentation start time (zero when latency is
// not wired). Top-level helpers, not closures, so uninstrumented solves
// cost nothing.
func (p *Problem) solveStart() time.Time {
	if m := p.Metrics; m != nil && m.Clock != nil {
		return m.Clock.Now()
	}
	return time.Time{}
}

// observeSolve records one completed solve: invocation count, roads
// selected, and — when a clock is wired — solve latency.
func (p *Problem) observeSolve(start time.Time, sol *Solution) {
	m := p.Metrics
	if m == nil {
		return
	}
	m.Solves.Inc()
	m.Selected.Add(len(sol.Roads))
	if m.Clock != nil {
		m.Latency.Observe(m.Clock.Since(start))
	}
}

// RatioGreedy is Alg. 2: each iteration picks the feasible candidate with
// the highest objective-increment-to-cost ratio. O(K·|R^w|·|R^q|) time,
// O(|R^w|) extra space; the approximation can be arbitrarily bad alone
// (Example 1).
func RatioGreedy(p *Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	start := p.solveStart()
	sol := runGreedy(p, true)
	p.observeSolve(start, &sol)
	return sol, nil
}

// ObjectiveGreedy is Alg. 3: each iteration picks the feasible candidate
// with the highest raw objective increment.
func ObjectiveGreedy(p *Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	start := p.solveStart()
	sol := runGreedy(p, false)
	p.observeSolve(start, &sol)
	return sol, nil
}

// HybridGreedy is Alg. 4: run Ratio-Greedy and Objective-Greedy, one after
// the other, and keep the better solution. Theorem 2 proves the
// approximation ratio (1−1/e)/2.
func HybridGreedy(p *Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	start := p.solveStart()
	// Remark 2's shortcut reasons about raw correlations; under the
	// variance modes run the general greedy passes (argmax corr and argmax
	// corr² disagree when correlations go negative, and route weights skew
	// the per-query best pick).
	if p.Mode == ObjCorrelation {
		if sol, ok := trivialCase(p); ok {
			p.observeSolve(start, &sol)
			return sol, nil
		}
	}
	ratio, obj := runGreedy(p, true), runGreedy(p, false)
	sol := obj
	if ratio.Value >= obj.Value {
		sol = ratio
	}
	p.observeSolve(start, &sol)
	return sol, nil
}

// trivialCase implements Remark 2: with θ = 1 and unit costs, OCS is trivial
// when the budget covers all workers (take everything) or when |R^q| < K
// (take each query road's best-correlated worker road).
func trivialCase(p *Problem) (Solution, bool) {
	if p.Theta != 1 {
		return Solution{}, false
	}
	for _, w := range p.Workers {
		if p.Costs[w] != 1 {
			return Solution{}, false
		}
	}
	if len(p.Workers) <= p.Budget {
		roads := append([]int(nil), p.Workers...)
		sort.Ints(roads)
		return Solution{Roads: roads, Value: p.Objective(roads), Cost: len(roads)}, true
	}
	if len(p.Query) < p.Budget {
		pick := make(map[int]bool, len(p.Query))
		for _, q := range p.Query {
			bestR, bestC := -1, math.Inf(-1)
			row := p.Oracle.CorrRow(q)
			for _, w := range p.Workers {
				if row[w] > bestC {
					bestR, bestC = w, row[w]
				}
			}
			if bestR >= 0 {
				pick[bestR] = true
			}
		}
		roads := make([]int, 0, len(pick))
		for r := range pick {
			roads = append(roads, r)
		}
		sort.Ints(roads)
		return Solution{Roads: roads, Value: p.Objective(roads), Cost: len(roads)}, true
	}
	return Solution{}, false
}

// Random selects feasible roads uniformly at random until the budget is
// exhausted — the paper's "Randomization" baseline (Fig. 3 column c,
// Table III).
func Random(p *Problem, rng *rand.Rand) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	start := p.solveStart()
	s := newGreedyState(p)
	perm := rng.Perm(len(p.Workers))
	for _, idx := range perm {
		r := p.Workers[idx]
		if p.Costs[r] > p.Budget-s.cost {
			continue
		}
		if s.redundant(r) {
			continue
		}
		s.add(r)
	}
	sort.Ints(s.selected)
	sol := Solution{Roads: s.selected, Value: p.Objective(s.selected), Cost: s.cost}
	p.observeSolve(start, &sol)
	return sol, nil
}

// Exhaustive finds the exact optimum by depth-first enumeration with budget
// pruning. Exponential in |R^w|; intended for validating the greedy
// solutions on small instances (tests cap |R^w| ≈ 20).
func Exhaustive(p *Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	if len(p.Workers) > 25 {
		return Solution{}, fmt.Errorf("ocs: exhaustive solver limited to 25 workers, got %d", len(p.Workers))
	}
	workers := append([]int(nil), p.Workers...)
	sort.Ints(workers)
	var best Solution
	best.Value = math.Inf(-1)
	cur := make([]int, 0, len(workers))
	var dfs func(idx, cost int)
	dfs = func(idx, cost int) {
		if v := p.Objective(cur); v > best.Value {
			best = Solution{Roads: append([]int(nil), cur...), Value: v, Cost: cost}
		}
		for i := idx; i < len(workers); i++ {
			r := workers[i]
			if cost+p.Costs[r] > p.Budget {
				continue
			}
			ok := true
			for _, sel := range cur {
				if p.Oracle.Corr(sel, r) > p.Theta {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			cur = append(cur, r)
			dfs(i+1, cost+p.Costs[r])
			cur = cur[:len(cur)-1]
		}
	}
	dfs(0, 0)
	return best, nil
}

// ApproxRatioBound is the Hybrid-Greedy guarantee of Theorem 2.
const ApproxRatioBound = (1 - 1/math.E) / 2
