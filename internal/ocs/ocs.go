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
// validate the approximation ratio empirically.
package ocs

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
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

	// Parallel evaluates candidate marginal gains across a goroutine pool
	// inside each greedy round (gains are independent given the incremental
	// state) and runs Hybrid-Greedy's two passes concurrently. Results are
	// bit-identical to the sequential solver: every candidate's score is
	// computed by the same float operations in the same order, and ties
	// break toward the smaller road id under both schedules. Instances
	// below parallelThreshold work units fall back to the sequential loop
	// so small problems don't pay goroutine overhead. The oracle is safe for
	// concurrent use.
	Parallel bool

	// Metrics, when non-nil, receives per-solve counters (invocations,
	// selected road count, solve latency). Instrumentation happens once per
	// exported solver call, never inside the greedy round loops, so the
	// solver hot path stays allocation- and atomic-free.
	Metrics *obs.OCSMetrics

	// workerSet is the hoisted R^w membership set, built once by Validate
	// so Feasible doesn't rebuild it per call.
	workerSet map[int]bool
}

// Tuning knobs for the parallel gain evaluation; package-level so tests can
// force the parallel path on small instances and single-core machines.
var (
	// parallelThreshold is the minimum |candidates|·|query| work size per
	// round before goroutines pay for themselves.
	parallelThreshold = 2048
	// parallelWorkerCap bounds the per-round worker pool; 0 means
	// GOMAXPROCS.
	parallelWorkerCap = 0
	// parallelMinChunk is the smallest candidate chunk worth a goroutine.
	parallelMinChunk = 16
)

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
	// one index. Both change only in add, between rounds, so concurrent
	// roundBest chunks read a stable slice.
	red     *corr.Redundancy
	blocked []bool
	cost    int
	value   float64
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
	s.value += s.gain(r)
	for qi := range s.p.Query {
		if c := s.score(qi, r); c > s.best[qi] {
			s.best[qi] = c
		}
	}
}

// value recomputation note: add() accumulates gains before updating best, so
// s.value always equals Objective(selected) up to float rounding.

// roundBest scans remaining[lo:hi] for the highest-scoring affordable,
// non-redundant candidate. Permanently infeasible candidates (redundancy
// never relaxes as the selection grows) are marked with -1, mirroring the
// feasible_set recomputation in Alg. 2 line 5. Ties break toward the smaller
// road id, matching the lazy variant so both produce identical selections.
// Read-only on the greedy state, so disjoint index ranges may run
// concurrently.
func (s *greedyState) roundBest(remaining []int, byRatio bool, budget, lo, hi int) (int, float64) {
	bestIdx, bestScore := -1, math.Inf(-1)
	for idx := lo; idx < hi; idx++ {
		r := remaining[idx]
		if r < 0 || s.p.Costs[r] > budget {
			continue
		}
		if s.redundant(r) {
			remaining[idx] = -1
			continue
		}
		score := s.gain(r)
		if byRatio {
			score /= float64(s.p.Costs[r])
		}
		if score > bestScore || (score == bestScore && bestIdx >= 0 && r < remaining[bestIdx]) {
			bestIdx, bestScore = idx, score
		}
	}
	return bestIdx, bestScore
}

// roundBestParallel fans roundBest out over disjoint chunks of the candidate
// slice and merges the per-chunk winners with the same (score desc, road id
// asc) order, so the result is bit-identical to the sequential scan: each
// candidate's score is produced by the exact same float operations, and the
// merge is a pure argmax over those values.
func (s *greedyState) roundBestParallel(remaining []int, byRatio bool, budget, workers int) (int, float64) {
	type chunkBest struct {
		idx   int
		score float64
	}
	results := make([]chunkBest, workers)
	chunk := (len(remaining) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(remaining) {
			hi = len(remaining)
		}
		if lo >= hi {
			results[w] = chunkBest{idx: -1, score: math.Inf(-1)}
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			idx, score := s.roundBest(remaining, byRatio, budget, lo, hi)
			results[w] = chunkBest{idx: idx, score: score}
		}(w, lo, hi)
	}
	wg.Wait()
	bestIdx, bestScore := -1, math.Inf(-1)
	for _, r := range results {
		if r.idx < 0 {
			continue
		}
		if r.score > bestScore || (r.score == bestScore && bestIdx >= 0 && remaining[r.idx] < remaining[bestIdx]) {
			bestIdx, bestScore = r.idx, r.score
		}
	}
	return bestIdx, bestScore
}

// gainWorkers decides the per-round pool size: 0 (sequential) unless the
// instance clears the work threshold and more than one worker is useful.
func gainWorkers(candidates, queries int) int {
	if queries < 1 {
		queries = 1
	}
	if candidates*queries < parallelThreshold {
		return 0
	}
	w := parallelWorkerCap
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if limit := candidates / parallelMinChunk; w > limit {
		w = limit
	}
	if w < 2 {
		return 0
	}
	return w
}

// runGreedy executes the shared loop of Alg. 2/3. score ranks candidates:
// objective increment for Objective-Greedy, increment/cost for Ratio-Greedy.
// With p.Parallel set and a large enough instance, each round's candidate
// scan is fanned out over a goroutine pool; see roundBestParallel for why
// the selection stays bit-identical.
func runGreedy(p *Problem, byRatio bool) Solution {
	s := newGreedyState(p)
	remaining := append([]int(nil), p.Workers...)
	workers := 0
	if p.Parallel {
		workers = gainWorkers(len(remaining), len(p.Query))
	}
	for {
		budget := p.Budget - s.cost
		var bestIdx int
		if workers > 1 {
			bestIdx, _ = s.roundBestParallel(remaining, byRatio, budget, workers)
		} else {
			bestIdx, _ = s.roundBest(remaining, byRatio, budget, 0, len(remaining))
		}
		if bestIdx < 0 {
			break
		}
		s.add(remaining[bestIdx])
		remaining[bestIdx] = -1
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

// HybridGreedy is Alg. 4: run Ratio-Greedy and Objective-Greedy and keep the
// better solution. Theorem 2 proves the approximation ratio (1−1/e)/2. With
// p.Parallel the two passes run concurrently — they share only the oracle,
// whose query rows they read from its cache, and each owns its θ-redundancy
// handle — and each pass additionally parallelizes its per-round candidate
// scan on large instances.
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
	ratio, obj := runHybridPasses(p, runGreedy)
	sol := obj
	if ratio.Value >= obj.Value {
		sol = ratio
	}
	p.observeSolve(start, &sol)
	return sol, nil
}

// runHybridPasses executes the ratio and objective passes of Alg. 4,
// concurrently when p.Parallel is set. Each pass owns its greedy state; the
// solutions are deterministic either way.
func runHybridPasses(p *Problem, pass func(*Problem, bool) Solution) (ratio, obj Solution) {
	if !p.Parallel {
		return pass(p, true), pass(p, false)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ratio = pass(p, true)
	}()
	obj = pass(p, false)
	<-done
	return ratio, obj
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
