// Package shard scales CrowdRTSE to metropolitan networks by graph
// partitioning: the road network is split into k balanced districts
// (graph.Partition), each district runs its own core.System — RTF submodel
// and per-slot correlation-oracle LRU — over the district plus a halo of
// boundary roads, and a single facade routes selections and estimates by
// road ownership and merges the per-shard answers deterministically.
//
// The Engine is a core.Backend: a server's one core.Batcher serves through
// it (Batcher.SetBackend), so singleflight, the warm-start LRU, the QoS
// tiers, the temporal filter, route ETAs and subscriptions keep one body in
// core and work in global road ids; the engine only partitions Select and
// Estimate. The core.Engine its Pin returns is also what sim.RunQuery runs
// the paper's query loop on.
//
// # Halo stitching
//
// Cutting the graph would sever the boundary correlations that GSP and the
// correlation oracle propagate across (Eq. 7–10 path products stop at the
// cut). Each shard therefore owns its partition and additionally carries
// every road within HaloHops of it: observations landing in the halo are
// duplicated into the shard, so propagation into the owned interior sees the
// same boundary evidence the unsharded engine would. Halo roads are
// estimated by the shard but never reported by it — ownership is a partition
// of the roads, so every road's answer comes from exactly one shard and the
// merged field is independent of shard completion order.
//
// A shard's model is sliced from the global model with rtf.Submodel, which
// preserves slot aliasing (speedgen.MetroModel's phase arrays), so sharding a
// metro model costs phase-count× the slice memory, not 288×.
package shard

import (
	"context"
	"fmt"
	"maps"
	"sync"

	"repro/internal/core"
	"repro/internal/gsp"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/ocs"
	"repro/internal/tslot"
)

// Config controls the shard layout.
type Config struct {
	// Shards is the number of partitions k (≥ 1).
	Shards int
	// Seed drives the partitioner; a fixed seed yields the identical layout
	// on every start (graph.Partition is deterministic).
	Seed int64
	// HaloHops is how far beyond its owned roads each shard extends
	// (default 2 — matching the speed generator's correlation range and the
	// 2-hop incident spillover).
	HaloHops int
}

// Shard is one district engine: a complete core.System over the owned roads
// plus halo, renumbered locally.
type Shard struct {
	index int
	sys   *core.System
	orig  []int // local id -> global id (owned ∪ halo)
	owned []int // global ids this shard owns (sorted)
	halo  []int // global ids carried as halo only (sorted)
}

// System returns the shard's core engine (for instrumentation/attachment).
func (s *Shard) System() *core.System { return s.sys }

// Owned returns the global ids the shard owns. Shared; do not modify.
func (s *Shard) Owned() []int { return s.owned }

// Halo returns the global ids the shard carries as halo. Shared; do not
// modify.
func (s *Shard) Halo() []int { return s.halo }

// gather renumbers a per-road vector from global into the shard's local ids.
func (s *Shard) gather(global []float64) []float64 {
	out := make([]float64, len(s.orig))
	for li, gid := range s.orig {
		out[li] = global[gid]
	}
	return out
}

// Engine is the sharded facade: it owns the partition layout and routes
// estimation and selection by road ownership.
type Engine struct {
	net    *network.Network
	owner  []int32   // global road -> owning shard
	local  [][]int32 // [shard][global road] -> local id, -1 if absent
	shards []*Shard
}

// New partitions sys's network, slices its serving model, and builds one
// core.System per shard with sys's configuration, so a one-shard or
// full-halo engine computes what sys does. The layout is a pure function of
// (topology, Shards, Seed).
func New(sys *core.System, cfg Config) (*Engine, error) {
	if sys == nil {
		return nil, fmt.Errorf("shard: nil system")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.HaloHops == 0 {
		cfg.HaloHops = 2
	}
	if cfg.HaloHops < 0 {
		return nil, fmt.Errorf("shard: negative halo depth %d", cfg.HaloHops)
	}
	net, model := sys.Network(), sys.Model()
	g := net.Graph()
	parts, err := g.Partition(cfg.Shards, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("shard: partition: %w", err)
	}
	n := net.N()
	e := &Engine{
		net:    net,
		owner:  make([]int32, n),
		local:  make([][]int32, cfg.Shards),
		shards: make([]*Shard, cfg.Shards),
	}
	for p, part := range parts {
		for _, u := range part {
			e.owner[u] = int32(p)
		}
	}
	for p, part := range parts {
		extended := g.WithinHops(part, cfg.HaloHops) // sorted, ⊇ part
		subnet, orig, err := net.Subnetwork(extended)
		if err != nil {
			return nil, fmt.Errorf("shard %d: subnetwork: %w", p, err)
		}
		submodel, err := model.Submodel(orig, subnet.Graph().EdgeList())
		if err != nil {
			return nil, fmt.Errorf("shard %d: submodel: %w", p, err)
		}
		shardSys, err := core.NewFromModel(subnet, submodel, sys.Config())
		if err != nil {
			return nil, fmt.Errorf("shard %d: system: %w", p, err)
		}
		local := make([]int32, n)
		for i := range local {
			local[i] = -1
		}
		var halo []int
		for li, gid := range orig {
			local[gid] = int32(li)
			if e.owner[gid] != int32(p) {
				halo = append(halo, gid)
			}
		}
		e.local[p] = local
		e.shards[p] = &Shard{index: p, sys: shardSys, orig: orig, owned: part, halo: halo}
	}
	return e, nil
}

// Shards returns the number of shards.
func (e *Engine) Shards() int { return len(e.shards) }

// Shard returns shard p.
func (e *Engine) Shard(p int) *Shard { return e.shards[p] }

// Owner returns the shard that owns global road r.
func (e *Engine) Owner(r int) int { return int(e.owner[r]) }

// Network returns the global network.
func (e *Engine) Network() *network.Network { return e.net }

// Pin implements core.Backend: it pins every shard's System to its serving
// model generation and renumbers the global warm seed into each shard —
// speeds gathered by local id, the seed's observations routed like live ones
// (to the owner and to halo carriers), its sweep count kept. A seed that
// does not cover the network pins every shard cold, as core.System ignores
// a misfit seed.
func (e *Engine) Pin(initial *gsp.Result) core.Engine {
	p := pinned{Engine: e, pins: make([]core.Engine, len(e.shards))}
	var seedObs []map[int]float64
	if initial != nil && len(initial.Speeds) == e.net.N() {
		// A seed observation outside the network leaves seedObs nil: cold.
		seedObs, _ = e.routeObservations(initial.Observed)
	}
	for i, sh := range e.shards {
		var seed *gsp.Result
		if seedObs != nil {
			seed = &gsp.Result{Speeds: sh.gather(initial.Speeds), Observed: seedObs[i], Iterations: initial.Iterations}
		}
		p.pins[i] = sh.sys.Pin(seed)
	}
	return p
}

// pinned is the engine with every shard fixed to one model generation and
// carrying its renumbered warm seed.
type pinned struct {
	*Engine
	pins []core.Engine // per shard, local road ids
}

// Estimate runs GSP on every shard concurrently and stitches the owned
// interiors into one global gsp.Result (see pinned.Estimate).
func (e *Engine) Estimate(ctx context.Context, t tslot.Slot, observed map[int]float64) (gsp.Result, error) {
	return e.Pin(nil).Estimate(ctx, t, observed)
}

// Estimate runs GSP on every shard concurrently and stitches the owned
// interiors into one global gsp.Result: speeds, SD and provenance come from
// each road's owner; the result converged when every shard did, aborted
// when any shard hit the deadline, and warm-started when every shard did.
// Iterations and MaxDelta are the largest over shards and SweepsSaved the
// smallest; Observed is the global observation map, so the result seeds the
// next warm start like an unsharded one. Observations are routed to every
// shard that carries the road — its owner and any shard holding it in the
// halo — which is exactly the boundary-stitching step: a probe just across
// the cut still anchors this side's propagation.
func (p pinned) Estimate(ctx context.Context, t tslot.Slot, observed map[int]float64) (gsp.Result, error) {
	obsPerShard, err := p.routeObservations(observed)
	if err != nil {
		return gsp.Result{}, err
	}
	per := make([]gsp.Result, len(p.pins))
	errs := make([]error, len(p.pins))
	var wg sync.WaitGroup
	for i := range p.pins {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			per[i], errs[i] = p.pins[i].Estimate(ctx, t, obsPerShard[i])
		}(i)
	}
	wg.Wait()
	n := p.net.N()
	res := gsp.Result{
		Speeds:      make([]float64, n),
		SD:          make([]float64, n),
		Provenance:  make([]gsp.Provenance, n),
		Converged:   true,
		WarmStarted: true,
		Observed:    maps.Clone(observed),
	}
	for i, sh := range p.shards {
		if errs[i] != nil {
			return gsp.Result{}, fmt.Errorf("shard %d: estimate: %w", i, errs[i])
		}
		r, local := &per[i], p.local[i]
		for _, gid := range sh.owned {
			li := local[gid]
			res.Speeds[gid], res.SD[gid], res.Provenance[gid] = r.Speeds[li], r.SD[li], r.Provenance[li]
		}
		res.Converged = res.Converged && r.Converged
		res.Aborted = res.Aborted || r.Aborted
		res.WarmStarted = res.WarmStarted && r.WarmStarted
		res.Iterations = max(res.Iterations, r.Iterations)
		res.MaxDelta = max(res.MaxDelta, r.MaxDelta)
		if i == 0 || r.SweepsSaved < res.SweepsSaved {
			res.SweepsSaved = r.SweepsSaved
		}
	}
	return res, nil
}

// routeObservations builds each shard's local observation map: every global
// observation lands in its owner shard and in every shard whose halo carries
// the road. A road outside the network is an error, as on core.System.
func (e *Engine) routeObservations(observed map[int]float64) ([]map[int]float64, error) {
	out := make([]map[int]float64, len(e.shards))
	for p := range out {
		out[p] = make(map[int]float64)
	}
	for gid, v := range observed {
		if gid < 0 || gid >= len(e.owner) {
			return nil, fmt.Errorf("shard: gsp: observed road %d out of range", gid)
		}
		for p := range e.shards {
			if li := e.local[p][gid]; li >= 0 {
				out[p][int(li)] = v
			}
		}
	}
	return out, nil
}

// Select solves OCS per shard and merges (see pinned.Select).
func (e *Engine) Select(ctx context.Context, req core.SelectRequest) (ocs.Solution, error) {
	return e.Pin(nil).Select(ctx, req)
}

// Select solves OCS per shard and merges, in global road ids: query roads
// and worker candidates are routed to their owning shard (a worker road is
// a candidate only where it is owned, so no road can be selected twice),
// RouteVar weights are gathered into each shard's numbering, the budget is
// split proportionally to each shard's queried-road count (largest
// remainder, shard order breaks ties — deterministic), and the per-shard
// selections are concatenated in shard order. A request no shard would run
// (no budget, no query) is rejected as core.System rejects it.
func (p pinned) Select(ctx context.Context, req core.SelectRequest) (ocs.Solution, error) {
	n := len(p.owner)
	switch {
	case req.Budget <= 0:
		return ocs.Solution{}, fmt.Errorf("shard: ocs: budget %d must be positive", req.Budget)
	case req.Selector == core.RouteVar && len(req.Weights) != n:
		return ocs.Solution{}, fmt.Errorf("shard: ocs: %d route weights for %d sigmas", len(req.Weights), n)
	case len(req.Roads) == 0:
		return ocs.Solution{}, fmt.Errorf("shard: ocs: empty query")
	}
	k := len(p.pins)
	queries := make([][]int, k)
	workers := make([][]int, k)
	for _, r := range req.Roads {
		if r < 0 || r >= n {
			return ocs.Solution{}, fmt.Errorf("shard: ocs: query road %d out of range", r)
		}
		s := p.owner[r]
		queries[s] = append(queries[s], int(p.local[s][r]))
	}
	for _, r := range req.WorkerRoads {
		if r < 0 || r >= n {
			return ocs.Solution{}, fmt.Errorf("shard: ocs: worker road %d out of range", r)
		}
		s := p.owner[r]
		workers[s] = append(workers[s], int(p.local[s][r]))
	}
	budgets := splitBudget(req.Budget, queries)

	sols := make([]ocs.Solution, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		if len(queries[i]) == 0 || budgets[i] == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			local := req
			local.Roads, local.WorkerRoads, local.Budget = queries[i], workers[i], budgets[i]
			if len(req.Weights) == n {
				local.Weights = p.shards[i].gather(req.Weights)
			}
			sols[i], errs[i] = p.pins[i].Select(ctx, local)
		}(i)
	}
	wg.Wait()
	var merged ocs.Solution
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			return ocs.Solution{}, fmt.Errorf("shard %d: select: %w", i, errs[i])
		}
		for _, lr := range sols[i].Roads {
			merged.Roads = append(merged.Roads, p.shards[i].orig[lr])
		}
		merged.Value += sols[i].Value
		merged.Cost += sols[i].Cost
	}
	return merged, nil
}

// splitBudget apportions the budget proportionally to each shard's query
// count by largest remainder; shards with no queries get nothing.
func splitBudget(budget int, queries [][]int) []int {
	k := len(queries)
	out := make([]int, k)
	total := 0
	for _, q := range queries {
		total += len(q)
	}
	if total == 0 || budget <= 0 {
		return out
	}
	assigned := 0
	rem := make([]int, k) // remainder numerators
	for p, q := range queries {
		share := budget * len(q)
		out[p] = share / total
		rem[p] = share % total
		assigned += out[p]
	}
	for assigned < budget {
		best := -1
		for p := 0; p < k; p++ {
			if len(queries[p]) == 0 {
				continue
			}
			if best < 0 || rem[p] > rem[best] {
				best = p
			}
		}
		if best < 0 {
			break
		}
		out[best]++
		rem[best] = -1 // each shard gains at most one remainder unit
		assigned++
	}
	return out
}

// ShardReport is one shard's health rollup for /v1/healthz.
type ShardReport struct {
	Shard       int              `json:"shard"`
	Roads       int              `json:"roads"`
	HaloRoads   int              `json:"halo_roads"`
	OracleCache core.CacheReport `json:"oracle_cache"`
}

// Reports returns each shard's cache/health rollup, in shard order.
func (e *Engine) Reports() []ShardReport {
	out := make([]ShardReport, len(e.shards))
	for p, sh := range e.shards {
		out[p] = ShardReport{
			Shard:       p,
			Roads:       len(sh.owned),
			HaloRoads:   len(sh.halo),
			OracleCache: sh.sys.OracleCacheReport(),
		}
	}
	return out
}

// Instrument attaches one instrument set to every shard system.
func (e *Engine) Instrument(p *obs.Pipeline) {
	for _, sh := range e.shards {
		sh.sys.Instrument(p)
	}
}

// RegisterMetrics exports shard-labeled oracle-cache series for every shard:
// crowdrtse_shardN_oracle_cache_{hits_total,misses_total,resident_rows,
// resident_bytes} plus crowdrtse_shards. They read the same
// OracleCacheReport values Reports serializes, so /v1/metrics and
// /v1/healthz agree by construction.
func (e *Engine) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("crowdrtse_shards", "number of partition shards",
		func() float64 { return float64(len(e.shards)) })
	for p := range e.shards {
		sys := e.shards[p].sys
		prefix := fmt.Sprintf("crowdrtse_shard%d_oracle_cache_", p)
		reg.CounterFunc(prefix+"hits_total", fmt.Sprintf("shard %d oracle-cache row hits", p),
			func() uint64 { return sys.OracleCacheReport().Hits })
		reg.CounterFunc(prefix+"misses_total", fmt.Sprintf("shard %d oracle-cache row misses", p),
			func() uint64 { return sys.OracleCacheReport().Misses })
		reg.GaugeFunc(prefix+"resident_rows", fmt.Sprintf("shard %d resident correlation rows", p),
			func() float64 { return float64(sys.OracleCacheReport().ResidentRows) })
		reg.GaugeFunc(prefix+"resident_bytes", fmt.Sprintf("shard %d resident correlation bytes", p),
			func() float64 { return float64(sys.OracleCacheReport().ResidentBytes) })
	}
}
