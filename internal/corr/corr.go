// Package corr implements the correlation oracle Γ_R of CrowdRTSE (§V-A).
//
// Road–road correlation (Eq. 7–10): for adjacent roads it is the RTF edge
// weight ρ_ij^t; for non-adjacent roads it is the maximal cumulative product
// of edge weights over any joining path, found with Dijkstra's algorithm on
// transformed edge weights. Road–set correlation (Eq. 11) is the max over the
// set; set–set correlation (Eq. 12) sums road–set correlations over the
// query; the periodicity-weighted correlation (Eq. 13) weights each queried
// road by its σ_i^t — the OCS objective. Redundancy answers the OCS
// θ-constraint (corr ≤ θ between selected roads) without computing a row.
//
// The paper's Eq. (9) converts edge weights to reciprocals 1/ρ and claims
// the shortest reciprocal-sum path maximizes the product. That identity does
// not hold in general (the correct transform is −log ρ). Both transforms are
// provided: NegLog (default, exact) and Reciprocal (paper-faithful
// heuristic); an ablation bench compares them.
//
// # Concurrency
//
// Oracle is the high-throughput row cache of the online stage: the hit path
// is a single atomic pointer load (no locks), misses go through a lock-striped
// singleflight so that N concurrent queries for the same source road trigger
// exactly one Dijkstra, and Warm precomputes rows through a worker pool ahead
// of an OCS solve.
package corr

import (
	"fmt"
	"math"
	"runtime"
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

// CacheStats are the row-cache counters of an oracle. Misses counts Dijkstra
// executions; InflightWaits counts lookups that piggybacked on a concurrent
// computation of the same row instead of redoing it.
type CacheStats struct {
	Hits          uint64
	Misses        uint64
	InflightWaits uint64
	ResidentRows  int
	ResidentBytes int64
}

// Add accumulates other into s (used by the core LRU to retire evicted
// oracles without losing their counters).
func (s *CacheStats) Add(other CacheStats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.InflightWaits += other.InflightWaits
	s.ResidentRows += other.ResidentRows
	s.ResidentBytes += other.ResidentBytes
}

// defaultShards is the number of lock stripes guarding in-flight row
// computations. Cache hits never touch a stripe, so this only bounds
// contention between concurrent misses.
const defaultShards = 32

// Option configures an Oracle at construction time.
type Option func(*Oracle)

// WithShards sets the number of singleflight lock stripes (rounded up to a
// power of two, minimum 1). The default is 32.
func WithShards(n int) Option {
	return func(o *Oracle) { o.shardCount = n }
}

// WithWarmWorkers sets the goroutine-pool size used by Warm. Zero or
// negative selects GOMAXPROCS.
func WithWarmWorkers(n int) Option {
	return func(o *Oracle) { o.warmWorkers = n }
}

// WithCSR supplies a prebuilt packed topology (network.Network.CSR()), so
// the oracle skips its own packing pass. The CSR must describe exactly the
// same graph the oracle was constructed over.
func WithCSR(c *graph.CSR) Option {
	return func(o *Oracle) { o.csr = c }
}

// WithRowObs instruments the miss path: every Dijkstra row computation's
// latency is observed into h on clock c. The lock-free hit path is
// untouched — hits and misses are already counted by the oracle's own
// atomics, which the obs registry re-exports via CounterFunc so the numbers
// cannot diverge between views. Either argument may be nil (no-op).
func WithRowObs(h *obs.Histogram, c obs.Clock) Option {
	return func(o *Oracle) {
		o.rowLatency = h
		o.rowClock = c
	}
}

// inflight is one singleflight computation: waiters block on done and read
// row afterwards.
type inflight struct {
	done chan struct{}
	row  []float64
}

// flightShard is one lock stripe of the miss path.
type flightShard struct {
	mu      sync.Mutex
	pending map[int]*inflight
}

// Oracle answers correlation queries for one slot's RTF view. Rows are
// computed by Dijkstra on demand and published into a per-road slice of
// atomic pointers, so the hit path is lock-free; concurrent misses for the
// same row are collapsed into a single computation (singleflight) guarded by
// a lock stripe. Safe for concurrent use.
type Oracle struct {
	g    *graph.Graph
	view rtf.View
	tf   Transform

	// rows[src] atomically publishes the finished row for src; nil = not
	// yet computed. Readers load, writers store exactly once.
	rows   []atomic.Pointer[[]float64]
	shards []flightShard

	shardCount  int
	warmWorkers int

	// rowLatency/rowClock optionally time the Dijkstra miss path (see
	// WithRowObs); both nil by default.
	rowLatency *obs.Histogram
	rowClock   obs.Clock

	// csr is the packed topology the miss path runs Dijkstra on; injected
	// via WithCSR or built lazily on the first miss. hw is the per-half-edge
	// transformed weight array (−log ρ or 1/ρ), materialized once per oracle
	// so every row computation is flat-array arithmetic.
	csr    *graph.CSR
	hwOnce sync.Once
	hw     []float64

	hits     atomic.Uint64
	misses   atomic.Uint64
	waits    atomic.Uint64
	resident atomic.Int64
	// rowBytes is the exact heap footprint of the published rows: 8 bytes
	// per float64 plus the slice header, accumulated at publication time so
	// Stats never walks the rows.
	rowBytes atomic.Int64
	// fixedBytes is the footprint of the per-oracle flat structures (the
	// half-edge weight array and the row-pointer table), added when they
	// materialize. Together with rowBytes this makes ResidentBytes
	// byte-accurate, which the core oracle-cache byte budget enforces on.
	fixedBytes atomic.Int64
}

// rowOverheadBytes is the per-row bookkeeping the exact accounting charges
// beyond the float64 payload: the slice header published into the pointer
// table.
const rowOverheadBytes = 24

// NewOracle builds an oracle over the topology g and slot parameters view.
func NewOracle(g *graph.Graph, view rtf.View, tf Transform, opts ...Option) *Oracle {
	o := &Oracle{g: g, view: view, tf: tf, shardCount: defaultShards}
	for _, opt := range opts {
		opt(o)
	}
	n := o.shardCount
	if n < 1 {
		n = 1
	}
	// Round up to a power of two so shard selection is a mask.
	p := 1
	for p < n {
		p <<= 1
	}
	o.shards = make([]flightShard, p)
	for i := range o.shards {
		o.shards[i].pending = make(map[int]*inflight)
	}
	o.rows = make([]atomic.Pointer[[]float64], g.N())
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

// CorrRow returns corr^t(src, j) for every road j. The returned slice is the
// cached row and must not be modified.
//
// By Eq. (7) adjacent roads use the edge weight ρ directly; by Eq. (8–10)
// non-adjacent roads use the best joining path's product; corr(i,i) = 1;
// unreachable pairs have correlation 0.
func (o *Oracle) CorrRow(src int) []float64 {
	if src < 0 || src >= o.g.N() {
		panic(fmt.Sprintf("corr: source road %d out of range [0,%d)", src, o.g.N()))
	}
	if p := o.rows[src].Load(); p != nil {
		o.hits.Add(1)
		return *p
	}
	return o.corrRowSlow(src)
}

// corrRowSlow is the miss path: singleflight per source road under a lock
// stripe. Exactly one caller computes the row; everyone else waits for it.
func (o *Oracle) corrRowSlow(src int) []float64 {
	sh := &o.shards[src&(len(o.shards)-1)]
	sh.mu.Lock()
	// The row may have been published between the fast-path check and the
	// stripe acquisition.
	if p := o.rows[src].Load(); p != nil {
		sh.mu.Unlock()
		o.hits.Add(1)
		return *p
	}
	if fl, ok := sh.pending[src]; ok {
		sh.mu.Unlock()
		o.waits.Add(1)
		<-fl.done
		return fl.row
	}
	fl := &inflight{done: make(chan struct{})}
	sh.pending[src] = fl
	sh.mu.Unlock()

	o.misses.Add(1)
	var rowStart time.Time
	if o.rowLatency != nil && o.rowClock != nil {
		rowStart = o.rowClock.Now()
	}
	hw, c := o.flatWeights()
	row := computeRowCSR(c, o.view, hw, src)
	if o.rowLatency != nil && o.rowClock != nil {
		o.rowLatency.Observe(o.rowClock.Since(rowStart))
	}
	fl.row = row
	o.rows[src].Store(&row)
	o.resident.Add(1)
	o.rowBytes.Add(int64(len(row))*8 + rowOverheadBytes)
	close(fl.done)

	sh.mu.Lock()
	delete(sh.pending, src)
	sh.mu.Unlock()
	return row
}

// Warm precomputes the rows for the given source roads through a worker
// pool, deduplicating and skipping already-resident rows. Out-of-range road
// ids are ignored: warming is a best-effort accelerator and must not
// pre-empt the solver's own validation. Concurrent Warm calls and queries
// are safe; the singleflight guarantees each row is still computed once.
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
	workers := o.warmWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(todo) {
		workers = len(todo)
	}
	if workers <= 1 {
		for _, r := range todo {
			o.CorrRow(r)
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
				o.CorrRow(todo[i])
			}
		}()
	}
	wg.Wait()
}

// Stats reports the cache counters: hits (lock-free fast path), misses
// (Dijkstra executions), inflight waits (collapsed duplicate computations),
// and the resident footprint. ResidentBytes is exact, not estimated: the
// published rows' payload plus slice headers (accumulated at publication)
// plus the oracle's flat structures — the row-pointer table, and once the
// first miss materializes them, the CSR packing and the half-edge weight
// array. The core oracle-cache byte budget enforces on this number, so what
// it evicts matches what the heap actually frees.
func (o *Oracle) Stats() CacheStats {
	return CacheStats{
		Hits:          o.hits.Load(),
		Misses:        o.misses.Load(),
		InflightWaits: o.waits.Load(),
		ResidentRows:  int(o.resident.Load()),
		ResidentBytes: o.rowBytes.Load() + o.fixedBytes.Load(),
	}
}

// computeRowCSR runs the Dijkstra of Eq. (8–10) over the flat half-edge
// weight array and evaluates the ρ-product along each node's tree path,
// reading view.Rho by the undirected edge id the search recorded — one
// indexed load per hop. It is a pure function of (c, view, hw, src), which is
// what makes singleflight sound: any caller's computation yields the same
// row. The tests compare it bit for bit against a map-based reference.
func computeRowCSR(c *graph.CSR, view rtf.View, hw []float64, src int) []float64 {
	n := c.N()
	_, parent, parentEdge := c.DijkstraFlat(src, hw)
	row := make([]float64, n)
	const unset = -1.0
	for i := range row {
		row[i] = unset
	}
	row[src] = 1
	stack := make([]int32, 0, 64)
	for v := int32(0); v < int32(n); v++ {
		if row[v] != unset {
			continue
		}
		if parent[v] < 0 {
			row[v] = 0 // unreachable
			continue
		}
		stack = stack[:0]
		u := v
		for row[u] == unset && parent[u] >= 0 {
			stack = append(stack, u)
			u = parent[u]
		}
		if row[u] == unset { // orphan chain (disconnected): all zero
			row[u] = 0
		}
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			p := parent[w]
			if row[p] == 0 {
				row[w] = 0
				continue
			}
			row[w] = row[p] * view.Rho[parentEdge[w]]
		}
	}
	// Eq. (7): adjacency overrides the path value.
	lo, hi := c.Row(src)
	for k := lo; k < hi; k++ {
		v, eid := c.At(k)
		row[v] = view.Rho[eid]
	}
	return row
}

// Corr returns corr^t(i, j).
func (o *Oracle) Corr(i, j int) float64 {
	if i == j {
		return 1
	}
	return o.CorrRow(i)[j]
}

// RoadSetCorr is Eq. (11): the maximum road–road correlation between road i
// and any member of set. An empty set has correlation 0.
func (o *Oracle) RoadSetCorr(i int, set []int) float64 {
	row := o.CorrRow(i)
	best := 0.0
	for _, j := range set {
		if row[j] > best {
			best = row[j]
		}
	}
	return best
}

// SetSetCorr is Eq. (12): Σ_{i∈query} corr(i, set).
func (o *Oracle) SetSetCorr(query, set []int) float64 {
	var sum float64
	for _, i := range query {
		sum += o.RoadSetCorr(i, set)
	}
	return sum
}

// WeightedCorr is Eq. (13), the OCS objective: Σ_{i∈query} σ_i·corr(i, set),
// where sigma is indexed by road id (pass the RTF view's Sigma).
func (o *Oracle) WeightedCorr(query []int, sigma []float64, set []int) float64 {
	var sum float64
	for _, i := range query {
		sum += sigma[i] * o.RoadSetCorr(i, set)
	}
	return sum
}

// BuildTable precomputes the correlation rows for every query road.
func (o *Oracle) BuildTable(query []int) *Table {
	t := &Table{Query: append([]int(nil), query...), Rows: make([][]float64, len(query))}
	for qi, q := range query {
		t.Rows[qi] = o.CorrRow(q)
	}
	return t
}

// Table is a dense query-to-candidate correlation matrix: Q[qi][r] =
// corr(query[qi], r) for every road r. OCS greedy loops consult it in O(1)
// per lookup; building it costs one Dijkstra per query road, which is the
// offline Γ_R precomputation of the paper scoped to the presented query.
type Table struct {
	Query []int
	Rows  [][]float64 // Rows[qi][road]
}

// Corr returns corr(query[qi], road).
func (t *Table) Corr(qi, road int) float64 { return t.Rows[qi][road] }
