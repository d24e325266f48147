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
// under ObjVarianceMin, its route-weighted form under ObjRouteVar.
func (p *Problem) Objective(set []int) float64 {
	return p.evaluate(set, p.Mode, p.Weights)
}

// VarianceReduction is the ObjVarianceMin objective for an arbitrary set:
// Σ_{qi} σ_qi² · max_{r∈set} corr²(qi, r) — how much total prior variance
// over the queried roads the set's best-proxy conditioning removes.
// Evaluable under either mode (the calibration ablation scores correlation
// selections on this axis too).
func (p *Problem) VarianceReduction(set []int) float64 {
	return p.evaluate(set, ObjVarianceMin, nil)
}

// WeightedVarianceReduction is the ObjRouteVar objective for an arbitrary
// set under explicit per-road weights (indexed by road id):
// Σ_{qi} w_qi · σ_qi² · max_{r∈set} corr²(qi, r). Like VarianceReduction it
// is evaluable regardless of the instance's mode, so the route-OCS ablation
// can score a correlation selection on the ETA-variance axis.
func (p *Problem) WeightedVarianceReduction(set []int, weights []float64) float64 {
	return p.evaluate(set, ObjRouteVar, weights)
}

// evaluate is the objective of mode over set. Each query road's best score
// is read from its cached correlation row, searched only as deep as
// knowing it needs (setBest).
func (p *Problem) evaluate(set []int, mode Mode, weights []float64) float64 {
	squared := mode != ObjCorrelation
	return p.sum(mode, weights, func(_, q int) float64 {
		return setBest(p.Oracle, q, set, squared)
	})
}

// sum adds up the objective of mode from each query road's best score
// best(qi, q) = max(0, max_{r∈R^c} score(q, r)): Σ σ_q·best under
// ObjCorrelation, Σ σ_q²·best under ObjVarianceMin, Σ w_q·σ_q²·best over the
// roads of non-zero weight under ObjRouteVar. Every solver's value goes
// through it, so equal best scores give equal bits.
func (p *Problem) sum(mode Mode, weights []float64, best func(qi, q int) float64) float64 {
	var total float64
	for qi, q := range p.Query {
		switch mode {
		case ObjVarianceMin:
			total += p.Sigma[q] * p.Sigma[q] * best(qi, q)
		case ObjRouteVar:
			wq := 0.0
			if q < len(weights) {
				wq = weights[q]
			}
			if wq == 0 {
				continue
			}
			total += wq * p.Sigma[q] * p.Sigma[q] * best(qi, q)
		default:
			total += p.Sigma[q] * best(qi, q)
		}
	}
	return total
}

// knownBest returns max(0, max_{r∈set} score) over the members row r
// knows, where score is corr or, when squared, corr², and whether that is
// the exact best: no member is unsettled, or none can beat it, the
// unsettled members' scores lying in [0, B] (or [0, B²]).
func knownBest(r *corr.Row, set []int, squared bool) (best float64, exact bool) {
	bound := r.Bound()
	if squared {
		bound *= bound
	}
	open := false
	for _, j := range set {
		c, ok := r.At(j)
		if squared {
			c *= c
		}
		if !ok {
			open = true
		} else if c > best {
			best = c
		}
	}
	return best, !open || bound <= best
}

// setBest is query road q's exact best score over set, bit for bit the
// complete row's: read from q's cached row when it knows it, else from the
// row Reach searches out to set's nearest member.
func setBest(o *corr.Oracle, q int, set []int, squared bool) float64 {
	best, exact := knownBest(o.Row(q), set, squared)
	if !exact {
		best, _ = knownBest(o.Reach(q, set), set, squared)
	}
	return best
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

// selection is the feasibility side of a solve: the picked roads, their
// cost, and every road blocked by θ-redundancy with a pick.
type selection struct {
	p     *Problem
	roads []int
	cost  int
	// red answers the θ-redundancy queries; blocked[r] marks every road it
	// placed above θ of some picked road.
	red     *corr.Redundancy
	blocked []bool
}

func newSelection(p *Problem, red *corr.Redundancy) selection {
	return selection{p: p, red: red, blocked: make([]bool, len(p.Sigma))}
}

// fits reports whether r is affordable and not θ-redundant with a pick.
func (s *selection) fits(r int) bool {
	return s.p.Costs[r] <= s.p.Budget-s.cost && !s.blocked[r]
}

// sorted returns the picked roads, ascending.
func (s *selection) sorted() []int {
	roads := slices.Clone(s.roads)
	slices.Sort(roads)
	return roads
}

// add picks r and blocks every road its θ-redundancy query returns.
func (s *selection) add(r int) {
	s.roads = append(s.roads, r)
	for _, j := range s.red.Above(r) {
		if int(j) < len(s.blocked) {
			s.blocked[j] = true
		}
	}
	s.cost += s.p.Costs[r]
}

// rowTable is a solve's view of its query rows, shared by Hybrid's two
// passes: each query road's cached correlation row and the score bound of
// the roads it leaves unsettled. A complete row is read in place by road
// id; a prefix is merged once per version into a column by worker index
// (Problem.Workers order), NaN where the prefix leaves the worker unsettled.
type rowTable struct {
	p     *Problem
	rows  []*corr.Row
	dense [][]float64 // rows[qi].Dense(), nil for a prefix
	cols  [][]float64 // prefix rows by worker index
	// bound[qi] bounds row qi's unsettled scores: B, or B² when squared.
	bound []float64
	// squared selects the corr² per-candidate score (both variance modes).
	squared bool
	// byRoad holds the worker indices in ascending road order, the order a
	// prefix lists its roads in; built for the first prefix.
	byRoad []int
	// red is the passes' shared θ-redundancy query handle.
	red *corr.Redundancy
	// version counts the rows installed, so a pass knows when its best_q
	// intervals predate a deeper row.
	version int
}

func newRowTable(p *Problem) *rowTable {
	n := len(p.Query)
	t := &rowTable{
		p:       p,
		rows:    make([]*corr.Row, n),
		dense:   make([][]float64, n),
		cols:    make([][]float64, n),
		bound:   make([]float64, n),
		squared: p.Mode != ObjCorrelation,
		red:     p.Oracle.Redundancy(p.Theta),
	}
	for qi, q := range p.Query {
		if t.rows[qi] == nil {
			t.set(qi, p.Oracle.Row(q))
		}
	}
	return t
}

// set installs row r as the row of every query index of query road
// p.Query[qi] (a query may repeat a road).
func (t *rowTable) set(qi int, r *corr.Row) {
	b := r.Bound()
	if t.squared {
		b *= b
	}
	dense, col := r.Dense(), []float64(nil)
	if dense == nil {
		col = t.column(r)
	}
	q := t.p.Query[qi]
	for qj, q2 := range t.p.Query {
		if q2 == q {
			t.rows[qj], t.dense[qj], t.cols[qj], t.bound[qj] = r, dense, col, b
		}
	}
	t.version++
}

// column merges prefix row r into a column by worker index.
func (t *rowTable) column(r *corr.Row) []float64 {
	if t.byRoad == nil {
		t.byRoad = make([]int, len(t.p.Workers))
		for wi := range t.byRoad {
			t.byRoad[wi] = wi
		}
		slices.SortFunc(t.byRoad, func(a, b int) int { return t.p.Workers[a] - t.p.Workers[b] })
	}
	roads, vals := r.Known()
	col := make([]float64, len(t.p.Workers))
	i := 0
	for _, wi := range t.byRoad {
		w := int32(t.p.Workers[wi])
		for i < len(roads) && roads[i] < w {
			i++
		}
		if i < len(roads) && roads[i] == w {
			col[wi] = vals[i]
		} else {
			col[wi] = math.NaN()
		}
	}
	return col
}

// score is worker wi's score in row qi: corr, or corr² in the variance
// modes; NaN when the row leaves the worker, road r, unsettled.
func (t *rowTable) score(qi, r, wi int) float64 {
	var c float64
	if d := t.dense[qi]; d != nil {
		c = d[r]
	} else {
		c = t.cols[qi][wi]
	}
	if t.squared {
		return c * c
	}
	return c
}

// best is setBest on the table's row qi, keeping a reached row.
func (t *rowTable) best(qi int, set []int) float64 {
	best, exact := knownBest(t.rows[qi], set, t.squared)
	if !exact {
		t.set(qi, t.p.Oracle.Reach(t.p.Query[qi], set))
		best, _ = knownBest(t.rows[qi], set, t.squared)
	}
	return best
}

// pass is one certified lazy-greedy run of Alg. 2 or 3 over a rowTable.
// Query road q's best score over the picks, best_q = max(0, max_{r∈R^c}
// score(q, r)), is known to lie in [lo[qi], hi[qi]]: a pick unsettled in
// row qi may score up to the row's bound. A candidate's marginal gain
// Σ_q w_q·max(0, score(q, r) − best_q) then lies in an interval too.
type pass struct {
	selection
	t       *rowTable
	byRatio bool
	picks   []int // worker indices of selection.roads
	// w[qi] is the query road's objective weight: σ under ObjCorrelation,
	// σ² under ObjVarianceMin, w·σ² under ObjRouteVar.
	w      []float64
	lo, hi []float64
	// open[qi] marks a pick unsettled in row qi.
	open []bool
	// version is the rowTable version the intervals were computed at.
	version int
}

func newPass(t *rowTable, byRatio bool) *pass {
	p := t.p
	n := len(p.Query)
	s := &pass{
		selection: newSelection(p, t.red),
		t:         t,
		byRatio:   byRatio,
		w:         make([]float64, n),
		lo:        make([]float64, n),
		hi:        make([]float64, n),
		open:      make([]bool, n),
		version:   t.version,
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

// rank returns the interval [lo, hi] of worker wi's ranking key: the
// marginal gain of its road r, per unit of cost under Ratio-Greedy. A term
// whose score is known against a known best_q adds the exact
// w·(c − best_q) to both ends; an unsettled score adds [0, w·(B − lo_q)].
// Float rounding is monotone, so lo ≤ the exact rank's bits ≤ hi, and
// lo = hi = the exact rank when no unsettled score can reach best_q.
func (s *pass) rank(r, wi int) (lo, hi float64) {
	t := s.t
	n := len(t.dense)
	cols, bound, squared := t.cols[:n], t.bound[:n], t.squared
	ws, blos, bhis := s.w[:n], s.lo[:n], s.hi[:n]
	for qi, d := range t.dense {
		var c float64
		if d != nil {
			c = d[r]
		} else {
			c = cols[qi][wi]
		}
		if squared {
			c *= c
		}
		w, blo := ws[qi], blos[qi]
		if c != c { // unsettled: c ∈ [0, bound]
			if b := bound[qi]; b > blo {
				hi += w * (b - blo)
			}
			continue
		}
		if c > blo {
			hi += w * (c - blo)
			if bhi := bhis[qi]; c > bhi {
				lo += w * (c - bhi)
			}
		}
	}
	if s.byRatio {
		cost := float64(s.p.Costs[r])
		lo, hi = lo/cost, hi/cost
	}
	return lo, hi
}

// width is how much row qi widens worker wi's gain interval.
func (s *pass) width(qi, r, wi int) float64 {
	c, w, blo := s.t.score(qi, r, wi), s.w[qi], s.lo[qi]
	if c != c {
		c = s.t.bound[qi]
	} else if c > s.hi[qi] {
		return w * (s.hi[qi] - blo)
	}
	if c > blo {
		return w * (c - blo)
	}
	return 0
}

// widest returns the query index whose row adds the most width to the rank
// intervals of entries a and b. Only a row short of complete can add any: a
// complete row knows every score and pins its best_q.
func (s *pass) widest(a, b *gainEntry) int {
	ca, cb := 1.0, 1.0
	if s.byRatio {
		ca, cb = float64(s.p.Costs[a.road]), float64(s.p.Costs[b.road])
	}
	best, bestW := -1, -1.0
	for qi, r := range s.t.rows {
		if r.Complete() {
			continue
		}
		if wd := s.width(qi, int(a.road), int(a.wi))/ca + s.width(qi, int(b.road), int(b.wi))/cb; wd > bestW {
			best, bestW = qi, wd
		}
	}
	return best
}

// add picks worker wi, road r, and raises each best_q interval by its
// score.
func (s *pass) add(r, wi int) {
	s.selection.add(r)
	s.picks = append(s.picks, wi)
	for qi := range s.lo {
		s.raise(qi, r, wi)
	}
}

// raise folds worker wi's score in row qi into best_q's interval.
func (s *pass) raise(qi, r, wi int) {
	if c := s.t.score(qi, r, wi); c != c {
		s.open[qi] = true
	} else if c > s.lo[qi] {
		s.lo[qi] = c
	}
	s.hi[qi] = s.lo[qi]
	if b := s.t.bound[qi]; s.open[qi] && b > s.lo[qi] {
		s.hi[qi] = b
	}
}

// refresh recomputes every best_q interval from the table's rows, if a
// deepening or a reach has extended one since the intervals were computed.
func (s *pass) refresh() {
	if s.version == s.t.version {
		return
	}
	s.version = s.t.version
	for qi := range s.lo {
		s.lo[qi], s.hi[qi], s.open[qi] = 0, 0, false
		for i, r := range s.roads {
			s.raise(qi, r, s.picks[i])
		}
	}
}

// deepen searches row qi one step deeper and refreshes the intervals.
func (s *pass) deepen(qi int) {
	s.t.set(qi, s.p.Oracle.Deepen(s.p.Query[qi], s.t.rows[qi]))
	s.refresh()
}

// bounds returns the interval of the pass's objective value.
func (s *pass) bounds() (lo, hi float64) {
	p := s.p
	lo = p.sum(p.Mode, p.Weights, func(qi, _ int) float64 { return s.lo[qi] })
	hi = p.sum(p.Mode, p.Weights, func(qi, _ int) float64 { return s.hi[qi] })
	return lo, hi
}

// solution returns the pass's picks, ascending, with their exact objective
// value: a best_q its interval pins is read off, the others are resolved on
// the row (rowTable.best).
func (s *pass) solution() Solution {
	p := s.p
	value := p.sum(p.Mode, p.Weights, func(qi, _ int) float64 {
		if s.lo[qi] == s.hi[qi] {
			return s.lo[qi]
		}
		return s.t.best(qi, s.roads)
	})
	return Solution{Roads: s.sorted(), Value: value, Cost: s.cost}
}

// gainEntry is a lazy-greedy heap entry: a candidate road and the interval
// of its rank as of the given stamp.
type gainEntry struct {
	lo, hi float64
	// road, its index in Problem.Workers, and the stamp lo and hi are of.
	road, wi, stamp int32
}

// beats reports whether e is certainly the round's pick against f's key:
// its rank is above every rank f's key bounds, ties toward the smaller
// road id.
func (e *gainEntry) beats(f *gainEntry) bool {
	return e.lo > f.hi || (e.lo == f.hi && e.road < f.road)
}

// gainHeap orders entries by hi, descending, then road id, ascending.
type gainHeap []gainEntry

func (h gainHeap) Len() int { return len(h) }
func (h gainHeap) Less(i, j int) bool {
	if h[i].hi != h[j].hi {
		return h[i].hi > h[j].hi
	}
	return h[i].road < h[j].road
}
func (h gainHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// Push and Pop complete heap.Interface. runGreedy never calls them: it
// updates and removes entries in place, so no entry is boxed.
func (h *gainHeap) Push(x any) { *h = append(*h, x.(gainEntry)) }
func (h *gainHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// drop removes entry i: the last entry takes its place and sifts.
func (h *gainHeap) drop(i int) {
	last := len(*h) - 1
	(*h)[i] = (*h)[last]
	*h = (*h)[:last]
	if i < last {
		heap.Fix(h, i)
	}
}

// runnerUp returns the index of the best entry after the top, -1 if none.
func (h gainHeap) runnerUp() int {
	switch {
	case len(h) < 2:
		return -1
	case len(h) == 2 || h.Less(1, 2):
		return 1
	}
	return 2
}

// runGreedy executes the shared loop of Alg. 2/3 with lazy, certified gain
// evaluation. byRatio ranks candidates by objective increment per unit cost
// (Ratio-Greedy) instead of the raw increment (Objective-Greedy).
//
// The stamp counts the changes a rank reads: each pick and each deeper row.
// A road's marginal gain can only shrink as the selection grows
// (TestGainsNonIncreasing), and a shallower row's interval still holds the
// deeper row's, so the hi of an entry ranked at an earlier stamp still
// bounds its current rank: the heap is keyed on hi, and a stale top is
// re-ranked in place. A fresh top is the round's argmax — the candidate the
// eager scan of every remaining road would pick, ties toward the smaller
// road id — once its lo beats the runner-up's key, which bounds every other
// entry's rank. When it does not, a stale runner-up is re-ranked; if both
// are fresh, the row adding the most width to the pair is searched one step
// deeper, which leaves every entry stale. Once every row is complete, every
// fresh interval is exact and a fresh top beats a fresh runner-up, so a row
// to deepen always exists and the loop ends. An unaffordable or θ-redundant
// entry is dropped for good: the remaining budget only shrinks and
// redundancy never relaxes.
func runGreedy(t *rowTable, byRatio bool) *pass {
	s := newPass(t, byRatio)
	p := s.p
	h := make(gainHeap, len(p.Workers))
	for wi, r := range p.Workers {
		lo, hi := s.rank(r, wi)
		h[wi] = gainEntry{lo: lo, hi: hi, road: int32(r), wi: int32(wi)}
	}
	heap.Init(&h)
	// Once the remaining budget is below the cheapest worker's cost, every
	// entry left would only be dropped: stop instead.
	minCost := math.MaxInt
	for _, r := range p.Workers {
		minCost = min(minCost, p.Costs[r])
	}
	var stamp int32
	for len(h) > 0 && p.Budget-s.cost >= minCost {
		top := &h[0]
		if !s.fits(int(top.road)) {
			h.drop(0)
			continue
		}
		if top.stamp < stamp {
			top.lo, top.hi = s.rank(int(top.road), int(top.wi))
			top.stamp = stamp
			heap.Fix(&h, 0)
			continue
		}
		ri := h.runnerUp()
		if ri < 0 || top.beats(&h[ri]) {
			s.add(int(top.road), int(top.wi))
			stamp++
			h.drop(0)
			continue
		}
		ru := &h[ri]
		switch {
		case !s.fits(int(ru.road)):
			h.drop(ri)
		case ru.stamp < stamp:
			ru.lo, ru.hi = s.rank(int(ru.road), int(ru.wi))
			ru.stamp = stamp
			heap.Fix(&h, ri)
		default:
			s.deepen(s.widest(top, ru))
			stamp++
		}
	}
	return s
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
	sol := runGreedy(newRowTable(p), true).solution()
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
	sol := runGreedy(newRowTable(p), false).solution()
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
	t := newRowTable(p)
	sol := hybridPick(runGreedy(t, true), runGreedy(t, false))
	p.observeSolve(start, &sol)
	return sol, nil
}

// hybridPick keeps the better of the two passes, Ratio-Greedy on ties. It
// compares their value intervals on the rows as both passes left them, and
// resolves both exact values only when the intervals overlap.
func hybridPick(ratio, obj *pass) Solution {
	ratio.refresh()
	obj.refresh()
	rlo, rhi := ratio.bounds()
	olo, ohi := obj.bounds()
	switch {
	case slices.Equal(ratio.sorted(), obj.sorted()) || rlo >= ohi:
		return ratio.solution()
	case rhi < olo:
		return obj.solution()
	}
	r, o := ratio.solution(), obj.solution()
	if r.Value < o.Value {
		return o
	}
	return r
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
	s := newSelection(p, p.Oracle.Redundancy(p.Theta))
	for _, idx := range rng.Perm(len(p.Workers)) {
		if r := p.Workers[idx]; s.fits(r) {
			s.add(r)
		}
	}
	roads := s.sorted()
	sol := Solution{Roads: roads, Value: p.Objective(roads), Cost: s.cost}
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
