// Package corr implements the correlation oracle Γ_R of CrowdRTSE (§V-A).
//
// Road–road correlation (Eq. 7–10): for adjacent roads it is the RTF edge
// weight ρ_ij^t; for non-adjacent roads it is the maximal cumulative product
// of edge weights over any joining path, found with Dijkstra's algorithm on
// transformed edge weights. Package ocs combines the rows into road–set
// (Eq. 11), set–set (Eq. 12) and periodicity-weighted (Eq. 13) correlation,
// the OCS objective; Reach searches a row as deep as Eq. (11) needs.
// Redundancy answers the OCS θ-constraint (corr ≤ θ between selected roads)
// without computing a row.
//
// The paper's Eq. (9) converts edge weights to reciprocals 1/ρ and claims
// the shortest reciprocal-sum path maximizes the product. That identity does
// not hold in general (the correct transform is −log ρ). Both transforms are
// provided: NegLog (default, exact) and Reciprocal (paper-faithful
// heuristic); an ablation bench compares them.
//
// # Certified rows
//
// A cached row need not be complete. Row creates it as the settle-order
// prefix of its Dijkstra out to a label limit L: the exact Γ of every road
// the search settled and of every Eq. (7) neighbour, and a bound B(L) on
// every other road (see Row). Deepen and Reach search the same row deeper
// and publish the longer prefix; CorrRow completes it. OCS reads its query
// rows this way, so a solve searches each only as deep as its picks and its
// objective value need.
//
// # Concurrency
//
// Oracle is the high-throughput row cache of the online stage: the hit path
// is a single atomic pointer load (no locks), every search goes through a
// lock-striped singleflight, so N concurrent queries for the same source
// road trigger exactly one Dijkstra, and Warm creates rows through a worker
// pool ahead of an OCS solve. A row only grows: a published Row is
// never mutated, a deeper prefix replaces it, and every published prefix
// agrees bit for bit with the complete row on what it settled.
package corr

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rtf"
)

// Transform selects the edge-weight transform used for the path search.
type Transform int

const (
	// NegLog uses w = −log ρ, for which Dijkstra's shortest path is exactly
	// the maximum-product path.
	NegLog Transform = iota
	// Reciprocal uses w = 1/ρ, the transform written in the paper's Eq. (9).
	// The product is still evaluated along the returned path, so results are
	// valid correlations, merely (possibly) sub-optimal paths.
	Reciprocal
)

// String returns the transform name.
func (t Transform) String() string {
	switch t {
	case NegLog:
		return "neglog"
	case Reciprocal:
		return "reciprocal"
	default:
		return fmt.Sprintf("Transform(%d)", int(t))
	}
}

// CacheStats are the row-cache counters of an oracle. Misses counts created
// rows and Deepenings the searches that extended a cached row; each is one
// Dijkstra. InflightWaits counts lookups that piggybacked on a concurrent
// search of the same row instead of redoing it.
type CacheStats struct {
	Hits          uint64
	Misses        uint64
	Deepenings    uint64
	InflightWaits uint64
	ResidentRows  int
	ResidentBytes int64
}

// Add accumulates other into s (used by the core LRU to retire evicted
// oracles without losing their counters).
func (s *CacheStats) Add(other CacheStats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Deepenings += other.Deepenings
	s.InflightWaits += other.InflightWaits
	s.ResidentRows += other.ResidentRows
	s.ResidentBytes += other.ResidentBytes
}

// flightShards is the number of lock stripes guarding in-flight row
// computations, a power of two so shard selection is a mask. Cache hits
// never touch a stripe, so this only bounds contention between concurrent
// misses.
const flightShards = 32

// Option configures an Oracle at construction time.
type Option func(*Oracle)

// WithCSR supplies a prebuilt packed topology (network.Network.CSR()), so
// the oracle skips its own packing pass. The CSR must describe exactly the
// same graph the oracle was constructed over.
func WithCSR(c *graph.CSR) Option {
	return func(o *Oracle) { o.csr = c }
}

// WithRowObs instruments the row searches: the latency of every Dijkstra
// that creates or deepens a row is observed into h on clock c. The
// lock-free hit path is untouched — hits, misses and deepenings are already
// counted by the oracle's own atomics, which the obs registry re-exports via
// CounterFunc so the numbers cannot diverge between views. Either argument
// may be nil (no-op).
func WithRowObs(h *obs.Histogram, c obs.Clock) Option {
	return func(o *Oracle) {
		o.rowLatency = h
		o.rowClock = c
	}
}

// Row is one cached correlation row of a source road src: the settle-order
// prefix of src's Dijkstra (Eq. 8–10) out to a label limit L. It knows the
// exact corr(src, j) of every road the search settled and of src's Eq. (7)
// neighbours, bit for bit the complete row's; every other road's label
// exceeds L, and its correlation lies in [0, Bound()]. A complete row
// (L = +Inf) knows every road and is stored dense by road id, as CorrRow
// returns it; a prefix stores the roads it knows, ascending, with their
// correlations. A Row is immutable once published.
type Row struct {
	vals  []float64 // complete: by road id; prefix: aligned with roads
	roads []int32   // prefix: the roads it knows, ascending; nil if complete
	limit float64
	bound float64
}

// Dense returns a complete row by road id, nil for a prefix. The slice is
// the cached row and must not be modified.
func (r *Row) Dense() []float64 {
	if r.roads != nil {
		return nil
	}
	return r.vals
}

// Known returns the roads a prefix knows, ascending, and their
// correlations, aligned; nil for a complete row. The slices are the cached
// row and must not be modified.
func (r *Row) Known() (roads []int32, vals []float64) {
	if r.roads == nil {
		return nil, nil
	}
	return r.roads, r.vals
}

// At returns corr(src, j) and whether the row knows it.
func (r *Row) At(j int) (float64, bool) {
	if r.roads == nil {
		return r.vals[j], true
	}
	if i, ok := slices.BinarySearch(r.roads, int32(j)); ok {
		return r.vals[i], true
	}
	return 0, false
}

// Bound returns B(L), the bound on every unsettled road's correlation: 0
// for a complete row.
func (r *Row) Bound() float64 { return r.bound }

// Complete reports whether the row knows every road.
func (r *Row) Complete() bool { return r.roads == nil }

// bytes is the row's exact heap footprint: its payload arrays and its
// header.
func (r *Row) bytes() int64 {
	return int64(cap(r.vals))*8 + int64(cap(r.roads))*4 + rowOverheadBytes
}

// reaches reports whether the row knows the best correlation between its
// source and set: it is complete, or some member's known correlation is at
// least the bound every unsettled member stays under.
func (r *Row) reaches(set []int) bool {
	if r.Complete() {
		return true
	}
	for _, j := range set {
		if c, ok := r.At(j); ok && c >= r.bound {
			return true
		}
	}
	return false
}

// Depth constants of the certified rows. Row creates a row out to the label
// of Γ = startCorr, and completes it instead when that prefix already holds
// more than 1/denseShare of the network: the full row then costs at most
// denseShare times as much, and a row that dense is read across solves
// cheapest complete (every score known, no interval to narrow). Deepen
// doubles a prefix's limit (squaring its Γ bound); a limit past maxLimit
// completes the row, which keeps every finite bound a normal float, so no
// product of an unsettled road can round above it through the subnormal
// range.
const (
	startCorr  = 1e-3
	denseShare = 32
	maxLimit   = 700
)

var startLimit = -math.Log(startCorr)

// boundAt is B(L) = e^(−L), widened by limitSlack: an unsettled road's label
// exceeds L, and its float ρ-product P obeys −log P > L − limitSlack·(1+L)
// (see limitSlack), so P < e^(−L + limitSlack·(1+L)). A complete row has
// bound 0.
func boundAt(limit float64) float64 {
	if math.IsInf(limit, 1) {
		return 0
	}
	return math.Exp(-limit + limitSlack*(1+limit))
}

// grow is the limit Deepen searches a prefix of limit l out to.
func grow(l float64) float64 {
	if 2*l > maxLimit {
		return math.Inf(1)
	}
	return 2 * l
}

// reachLimit is the limit Reach settles through once it settles a set
// member at label d: the member's product P obeys −log P < d +
// limitSlack·(1+d), and the bound at d + 3·limitSlack·(1+d) is below that,
// so every road the search leaves unsettled correlates less than the member.
func reachLimit(d float64) float64 {
	if l := d + 3*limitSlack*(1+d); l <= maxLimit {
		return l
	}
	return math.Inf(1)
}

// inflight is one singleflight search: waiters block on done and re-read
// the published row afterwards.
type inflight struct {
	done chan struct{}
}

// flightShard is one lock stripe of the search path.
type flightShard struct {
	mu      sync.Mutex
	pending map[int]*inflight
}

// Oracle answers correlation queries for one slot's RTF view. Rows are
// searched on demand and published into a per-road slice of atomic
// pointers, so the hit path is lock-free; concurrent searches of the same
// row are collapsed into one (singleflight) guarded by a lock stripe. Safe
// for concurrent use.
type Oracle struct {
	g    *graph.Graph
	view rtf.View
	tf   Transform

	// rows[src] atomically publishes src's deepest row so far; nil = not
	// yet created. Only the goroutine holding src's in-flight search
	// stores, and only a deeper row.
	rows   []atomic.Pointer[Row]
	shards []flightShard

	// rowLatency/rowClock optionally time the row searches (see
	// WithRowObs); both nil by default.
	rowLatency *obs.Histogram
	rowClock   obs.Clock

	// csr is the packed topology the searches run on; injected via WithCSR
	// or built lazily on the first search. hw is the per-half-edge
	// transformed weight array (−log ρ or 1/ρ), materialized once per oracle
	// so every search is flat-array arithmetic. scratch pools the searches'
	// O(N) working memory (*searchScratch).
	csr     *graph.CSR
	hwOnce  sync.Once
	hw      []float64
	scratch sync.Pool

	hits       atomic.Uint64
	misses     atomic.Uint64
	deepenings atomic.Uint64
	waits      atomic.Uint64
	resident   atomic.Int64
	// rowBytes is the exact heap footprint of the published rows (see
	// Row.bytes), adjusted whenever a row is published, so Stats never walks
	// the rows.
	rowBytes atomic.Int64
	// fixedBytes is the footprint of the per-oracle flat structures (the
	// half-edge weight array and the row-pointer table), added when they
	// materialize. Together with rowBytes this makes ResidentBytes
	// byte-accurate, which the core oracle-cache byte budget enforces on.
	fixedBytes atomic.Int64
}

// rowOverheadBytes is the per-row bookkeeping the exact accounting charges
// beyond the payload: the Row header published into the pointer table (two
// slice headers, the limit and the bound).
const rowOverheadBytes = 64

// NewOracle builds an oracle over the topology g and slot parameters view.
func NewOracle(g *graph.Graph, view rtf.View, tf Transform, opts ...Option) *Oracle {
	o := &Oracle{g: g, view: view, tf: tf}
	for _, opt := range opts {
		opt(o)
	}
	o.shards = make([]flightShard, flightShards)
	for i := range o.shards {
		o.shards[i].pending = make(map[int]*inflight)
	}
	o.rows = make([]atomic.Pointer[Row], g.N())
	o.fixedBytes.Store(int64(g.N()) * 8) // the row-pointer table
	return o
}

// flatWeights returns the per-half-edge transformed weight array, building
// the CSR packing and the weights on first use (one O(2M) pass per oracle,
// amortized over every row the oracle ever computes).
func (o *Oracle) flatWeights() ([]float64, *graph.CSR) {
	o.hwOnce.Do(func() {
		if o.csr == nil {
			o.csr = o.g.BuildCSR()
			o.fixedBytes.Add(o.csr.Bytes())
		}
		c := o.csr
		hw := make([]float64, c.NumHalfEdges())
		n := c.N()
		for u := 0; u < n; u++ {
			lo, hi := c.Row(u)
			for k := lo; k < hi; k++ {
				_, eid := c.At(k)
				rho := o.view.Rho[eid]
				switch {
				case rho <= 0:
					// Non-edges never reach here; a zero ρ means an unfitted model.
					hw[k] = math.Inf(1)
				case o.tf == Reciprocal:
					hw[k] = 1 / rho
				default:
					hw[k] = -math.Log(rho)
				}
			}
		}
		o.hw = hw
		o.fixedBytes.Add(int64(len(hw)) * 8)
	})
	return o.hw, o.csr
}

// checkSource panics on a source road outside the network.
func (o *Oracle) checkSource(src int) {
	if src < 0 || src >= o.g.N() {
		panic(fmt.Sprintf("corr: source road %d out of range [0,%d)", src, o.g.N()))
	}
}

// CorrRow returns corr^t(src, j) for every road j: the complete row,
// completing a cached prefix first. The returned slice is the cached row and
// must not be modified.
//
// By Eq. (7) adjacent roads use the edge weight ρ directly; by Eq. (8–10)
// non-adjacent roads use the best joining path's product; corr(i,i) = 1;
// unreachable pairs have correlation 0.
func (o *Oracle) CorrRow(src int) []float64 {
	o.checkSource(src)
	if r := o.rows[src].Load(); r != nil && r.Complete() {
		o.hits.Add(1)
		return r.vals
	}
	return o.fetch(src, (*Row).Complete, math.Inf(1), nil, nil).vals
}

// Row returns src's cached row, whatever its depth, creating it on a miss:
// out to the label of Γ = 1e-3 under NegLog, or complete once that prefix
// would hold more than 1/denseShare of the network; complete under
// Reciprocal, whose labels bound nothing (see Redundancy).
func (o *Oracle) Row(src int) *Row {
	o.checkSource(src)
	if r := o.rows[src].Load(); r != nil {
		o.hits.Add(1)
		return r
	}
	always := func(*Row) bool { return true }
	if o.tf == Reciprocal {
		return o.fetch(src, always, math.Inf(1), nil, nil)
	}
	settled, dense := 0, o.g.N()/denseShare
	return o.fetch(src, always, startLimit,
		func(int32) bool { settled++; return settled > dense },
		func(float64) float64 { return math.Inf(1) })
}

// Deepen returns a row of src searched deeper than seen, a row of src the
// caller holds: the cached row if it already is, else a search out to twice
// seen's limit, or the complete row past limit 700.
func (o *Oracle) Deepen(src int, seen *Row) *Row {
	o.checkSource(src)
	if seen.Complete() {
		return seen
	}
	return o.fetch(src, func(r *Row) bool { return r.limit > seen.limit }, grow(seen.limit), nil, nil)
}

// Reach returns a row of src that knows corr(src, set), Eq. (11): complete,
// or holding a member whose correlation is at least the row's bound, so no
// unsettled member can beat it. When the cached row does not, one search
// from src stops at the first member it settles that is src or not an
// Eq. (7) neighbour of src, whose row value is then its path product, and
// settles on through the rounding band above that member's label (see
// reachLimit). A set no such member of which is reachable completes the row.
// Under Reciprocal, whose labels bound nothing, every row is complete (see
// Row).
func (o *Oracle) Reach(src int, set []int) *Row {
	if o.tf == Reciprocal {
		return o.Row(src)
	}
	o.checkSource(src)
	_, c := o.flatWeights()
	var members []int32
	hit := func(v int32) bool {
		if members == nil {
			members = make([]int32, 0, len(set))
			for _, j := range set {
				members = append(members, int32(j))
			}
			slices.Sort(members)
		}
		if _, ok := slices.BinarySearch(members, v); !ok {
			return false
		}
		return int(v) == src || !slices.Contains(c.Neighbors(src), v)
	}
	return o.fetch(src, func(r *Row) bool { return r.reaches(set) }, math.Inf(1), hit, reachLimit)
}

// Warm creates the missing rows of the given source roads through a worker
// pool, each as Row would, deduplicating and skipping already-resident rows.
// Out-of-range road ids are ignored: warming is a best-effort accelerator
// and must not pre-empt the solver's own validation. Concurrent Warm calls
// and queries are safe; the singleflight guarantees each row is still
// created once.
func (o *Oracle) Warm(roads []int) {
	n := o.g.N()
	// Collect only the missing rows; the common steady-state call (every row
	// already resident) allocates nothing. Duplicates in todo are harmless:
	// the second request either hits the fast path or joins the singleflight.
	var todo []int
	for _, r := range roads {
		if r < 0 || r >= n || o.rows[r].Load() != nil {
			continue
		}
		todo = append(todo, r)
	}
	if len(todo) == 0 {
		return
	}
	workers := min(runtime.GOMAXPROCS(0), len(todo))
	if workers <= 1 {
		for _, r := range todo {
			o.Row(r)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(todo) {
					return
				}
				o.Row(todo[i])
			}
		}()
	}
	wg.Wait()
}

// fetch returns src's published row once need holds for it. When it does
// not, one search under src's lock stripe, out to limit and moved by hit and
// reach (see graph.Searcher.Until), creates the row (a miss) or deepens it,
// and publishes the result if it is deeper than the published row.
// Goroutines that find a search of src in flight wait for it and re-check
// need, so concurrent lookups of one row run one Dijkstra at a time.
func (o *Oracle) fetch(src int, need func(*Row) bool, limit float64, hit func(int32) bool, reach func(float64) float64) *Row {
	if r := o.rows[src].Load(); r != nil && need(r) {
		o.hits.Add(1)
		return r
	}
	sh := &o.shards[src&(len(o.shards)-1)]
	for {
		sh.mu.Lock()
		// The row may have been published or deepened since the last check.
		cur := o.rows[src].Load()
		if cur != nil && need(cur) {
			sh.mu.Unlock()
			o.hits.Add(1)
			return cur
		}
		if fl, ok := sh.pending[src]; ok {
			sh.mu.Unlock()
			o.waits.Add(1)
			<-fl.done
			if r := o.rows[src].Load(); r != nil && need(r) {
				return r
			}
			continue
		}
		fl := &inflight{done: make(chan struct{})}
		sh.pending[src] = fl
		sh.mu.Unlock()

		r := o.search(src, limit, hit, reach)
		// Every need that fails on a published row asks for a limit past its
		// own, so the search ends deeper than cur; the check keeps the
		// published limit from ever decreasing.
		switch {
		case cur == nil:
			o.misses.Add(1)
			o.resident.Add(1)
			o.rowBytes.Add(r.bytes())
			o.rows[src].Store(r)
		case r.limit > cur.limit:
			o.deepenings.Add(1)
			o.rowBytes.Add(r.bytes() - cur.bytes())
			o.rows[src].Store(r)
		}
		close(fl.done)

		sh.mu.Lock()
		delete(sh.pending, src)
		sh.mu.Unlock()
		return r
	}
}

// searchScratch is the pooled O(N) working memory of a row search.
type searchScratch struct {
	s    *graph.Searcher
	prod []float64 // ρ-products by road id of the last search's roads
}

// search runs src's Dijkstra over the flat half-edge weights out to limit,
// moved by hit and reach, and builds the row it settled: the ρ-product
// along each settled road's tree path, multiplied in settle order from its
// parent's product, then Eq. (7)'s edge ρ on src's neighbours. A settled
// road gets the same label, parent and parent edge as in the full search
// (see graph.Searcher.Limited), so its value is the complete row's bit for
// bit. A search that runs out of reachable roads first builds the complete
// row, 0 on every unreachable road. It is a pure function of (o, src, the
// search's end), which is what makes singleflight sound; the tests compare
// complete rows bit for bit against a map-based reference.
func (o *Oracle) search(src int, limit float64, hit func(int32) bool, reach func(float64) float64) *Row {
	var start time.Time
	if o.rowLatency != nil && o.rowClock != nil {
		start = o.rowClock.Now()
	}
	hw, c := o.flatWeights()
	sc, _ := o.scratch.Get().(*searchScratch)
	if sc == nil {
		sc = &searchScratch{s: c.NewSearcher(), prod: make([]float64, c.N())}
	}
	order, end := sc.s.Until(src, hw, limit, hit, reach)
	prod := sc.prod
	prod[src] = 1
	for _, v := range order[1:] {
		p, e := sc.s.Tree(v)
		prod[v] = prod[p] * o.view.Rho[e]
	}
	// Eq. (7): adjacency overrides the path value.
	nbs := c.Neighbors(src)
	lo, _ := c.Row(src)
	for k := range nbs {
		_, e := c.At(lo + int32(k))
		prod[nbs[k]] = o.view.Rho[e]
	}
	r := &Row{limit: end, bound: boundAt(end)}
	if math.IsInf(end, 1) {
		r.vals = make([]float64, c.N()) // 0: unreachable
		for _, v := range order {
			r.vals[v] = prod[v]
		}
		for _, v := range nbs {
			r.vals[v] = prod[v]
		}
	} else {
		roads := make([]int32, 0, len(order)+len(nbs))
		roads = append(append(roads, order...), nbs...)
		slices.Sort(roads)
		r.roads = slices.Compact(roads) // a settled neighbour is listed twice
		r.vals = make([]float64, len(r.roads))
		for i, v := range r.roads {
			r.vals[i] = prod[v]
		}
	}
	o.scratch.Put(sc)
	if o.rowLatency != nil && o.rowClock != nil {
		o.rowLatency.Observe(o.rowClock.Since(start))
	}
	return r
}

// Stats reports the cache counters: hits (rows served without a search),
// misses (rows created), deepenings (searches that extended a row), inflight
// waits (collapsed duplicate searches), and the resident footprint.
// ResidentBytes is exact, not estimated: the published rows' payload plus
// Row headers (adjusted on every publish, see Row.bytes) plus the oracle's
// flat structures — the row-pointer table, and once the first search
// materializes them, the CSR packing and the half-edge weight array. The
// core oracle-cache byte budget enforces on this number, so what it evicts
// matches what the heap actually frees.
func (o *Oracle) Stats() CacheStats {
	return CacheStats{
		Hits:          o.hits.Load(),
		Misses:        o.misses.Load(),
		Deepenings:    o.deepenings.Load(),
		InflightWaits: o.waits.Load(),
		ResidentRows:  int(o.resident.Load()),
		ResidentBytes: o.rowBytes.Load() + o.fixedBytes.Load(),
	}
}

// Corr returns corr^t(i, j).
func (o *Oracle) Corr(i, j int) float64 {
	if i == j {
		return 1
	}
	return o.CorrRow(i)[j]
}
