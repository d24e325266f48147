package main

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http/httptest"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/server"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

// Op kinds. A dispatch op is the paper's query loop: select, one report per
// selected road, then an estimate over the same roads.
const (
	kindDispatch = "dispatch"
	kindEstimate = "estimate"
	kindRoute    = "route"
	kindForecast = "forecast"
	kindReport   = "report"
)

// share is how many ops of a kind each block of a workload's mix holds.
type share struct {
	kind  string
	count int
}

// workload is one traffic mix against one world. The latency phase is an
// open loop at rate ops/s (a closed loop with one client when rate is 0);
// the throughput phase that follows is a closed loop with two clients.
type workload struct {
	name  string
	metro bool
	mix   []share // one block of ops, dealt in a seeded order
	rate  float64
	// perSlot is how many ops each slot of the simulated clock serves. The
	// clock follows the op count, not the wall clock, so a slower host sees
	// the same work per slot.
	perSlot int
	tailQ   float64 // quantile reported as lat_tail_ms
	// Route endpoints lie minHops..maxHops BFS hops apart, and the trip may
	// cross horizon slots past its departure slot.
	minHops, maxHops, horizon int
}

// The paper workloads run on the paper's 607-road network; the metro ones on
// 100k roads. The fixed open-loop rates are a fifth to 30% of each mix's
// closed-loop capacity on a 2-vCPU machine, so the latency phase measures
// service time rather than queueing. The tail quantile leaves at least 15
// samples beyond it, except in metro-dispatch's 22-sample latency phase.
var workloads = []workload{
	{name: "paper-dispatch", mix: []share{{kindDispatch, 1}},
		rate: 110, perSlot: 220, tailQ: 0.9},
	{name: "paper-serve-mix", mix: []share{{kindEstimate, 11}, {kindRoute, 5}, {kindForecast, 1}, {kindReport, 3}},
		rate: 800, perSlot: 800, tailQ: 0.9, minHops: 8, maxHops: 30, horizon: 6},
	{name: "metro-read", metro: true, mix: []share{{kindEstimate, 6}, {kindRoute, 3}, {kindReport, 1}},
		rate: 10, perSlot: 50, tailQ: 0.9, minHops: 20, maxHops: 80, horizon: 12},
	{name: "metro-dispatch", metro: true, mix: []share{{kindDispatch, 1}},
		perSlot: 10, tailQ: 0.75},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Fixed properties of the simulated city. They do not depend on --seed: the
// seed drives the traffic (query roads, report noise, route endpoints, op
// mix), not the road network, the crowd's positions or the ground truth.
const (
	startSlot    = tslot.Slot(84) // 07:00
	latShare     = 0.6            // of --seconds, spent in the latency phase
	querySize    = 33             // |R^q| of the paper's workload
	selectBudget = 30
	selectTheta  = 0.92
	reportNoise  = 0.05 // relative SD of a worker's speed report
	paperDays    = 30
	paperTrain   = 27 // days 0..26 train the model
	paperTruth   = 29 // day 29 is the realtime ground truth
	metroWorkers = 2000
	// filterReach is how far ahead of its state, in slots, an estimate may
	// be and still move the server's temporal filter.
	filterReach = 12
	// A route endpoint pair is kept only if its fastest trip at routeSlack
	// times each road's slowest speed of the day fits the route horizon, so
	// that a served field slower than the prior cannot push a valid request
	// past its horizon.
	routeSlack = 0.4
	routePairs = 200
)

// world is a serving system behind a loopback HTTP server, plus the ground
// truth the benchmark scores answers against.
type world struct {
	net   *network.Network
	sys   *core.System
	srv   *server.Server
	hs    *httptest.Server
	truth func(t tslot.Slot, road int) float64
	// workers are the roads the crowd stands on: a fifth of the paper
	// network, or metroWorkers uniform draws on the metro.
	workers []int
	sink    *spanSink // nil unless traced
}

func (w *world) close() { w.hs.Close() }

// buildWorld builds the network, the fitted model, the system and its HTTP
// server. metroRoads sets the metro size (100k outside tests).
func buildWorld(wl workload, metroRoads int, traced bool) (*world, error) {
	var w *world
	if wl.metro {
		net := network.Metro(network.MetroOptions{Roads: metroRoads, Seed: 7})
		model, profiles, err := speedgen.MetroModel(net, speedgen.MetroConfig{Seed: 8})
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.OracleCacheSlots = 8
		cfg.OracleCacheBytes = 128 << 20
		sys, err := core.NewFromModel(net, model, cfg)
		if err != nil {
			return nil, err
		}
		truth := func(t tslot.Slot, r int) float64 {
			p := profiles[r]
			v := p.Speed(t) * (1 + p.Volatility*hashNormal(uint64(r), uint64(t)))
			return math.Max(v, 5)
		}
		w = &world{net: net, sys: sys, truth: truth}
	} else {
		net := network.Synthetic(network.DefaultHK(11))
		hist, err := speedgen.Generate(net, speedgen.Default(paperDays, 12))
		if err != nil {
			return nil, err
		}
		sys, err := core.Train(net, hist.DayRange(0, paperTrain), core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		w = &world{net: net, sys: sys, truth: func(t tslot.Slot, r int) float64 { return hist.At(paperTruth, t, r) }}
	}
	rng := rand.New(rand.NewPCG(9, 9))
	n := w.net.N()
	if wl.metro {
		for i := 0; i < metroWorkers; i++ {
			w.workers = append(w.workers, rng.IntN(n))
		}
	} else {
		w.workers = rng.Perm(n)[:n/5]
	}
	w.srv = server.New(w.sys)
	if traced {
		w.sink = newSpanSink()
		w.srv.TraceLog = w.sink.logger()
	}
	w.hs = httptest.NewServer(w.srv.Handler())
	return w, nil
}

// op is one scheduled operation. Its payload is a pure function of (seed,
// index), so any number of ops can be drawn lazily and two runs with one
// seed send identical traffic. The slot is not part of the payload: it
// follows the clock of the run.
type op struct {
	Kind  string `json:"kind"`
	Roads []int  `json:"roads,omitempty"` // estimate, forecast, dispatch
	Src   int    `json:"src,omitempty"`
	Dst   int    `json:"dst,omitempty"`
	Road  int    `json:"road"`  // a worker road, for a report
	Noise uint64 `json:"noise"` // seeds the report noise
}

// traffic is the seed-dependent input of one run.
type traffic struct {
	seed    uint64
	n       int
	workers []int
	pairs   [][2]int
	deck    []string // one block of op kinds, in the mix's exact proportions
}

func newTraffic(wl workload, w *world, seed int64) (*traffic, error) {
	tr := &traffic{seed: uint64(seed), n: w.net.N(), workers: w.workers}
	for _, s := range wl.mix {
		for i := 0; i < s.count; i++ {
			tr.deck = append(tr.deck, s.kind)
		}
	}
	rng := rand.New(rand.NewPCG(tr.seed, 0x726f75746573)) // "routes"
	if wl.horizon > 0 {
		pairs, err := routeEndpoints(w, wl, rng)
		if err != nil {
			return nil, err
		}
		tr.pairs = pairs
	}
	return tr, nil
}

// op draws operation i. Its kind comes from dealing the mix block by
// block, so every run holds the mix's exact proportions and the seed only
// orders them.
func (tr *traffic) op(i int) op {
	b := len(tr.deck)
	deal := rand.New(rand.NewPCG(tr.seed, uint64(i/b)|1<<63)).Perm(b)
	rng := rand.New(rand.NewPCG(tr.seed, uint64(i)))
	o := op{Kind: tr.deck[deal[i%b]], Noise: rng.Uint64(), Road: tr.workers[rng.IntN(len(tr.workers))]}
	switch o.Kind {
	case kindDispatch, kindEstimate, kindForecast:
		o.Roads = distinctRoads(rng, tr.n, querySize)
	case kindRoute:
		p := tr.pairs[rng.IntN(len(tr.pairs))]
		o.Src, o.Dst = p[0], p[1]
	}
	return o
}

// reports tells whether the mix has report ops.
func (wl workload) reports() bool {
	for _, s := range wl.mix {
		if s.kind == kindReport {
			return true
		}
	}
	return false
}

func distinctRoads(rng *rand.Rand, n, k int) []int {
	out := make([]int, 0, k)
	seen := make(map[int]bool, k)
	for len(out) < k {
		r := rng.IntN(n)
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// reportSpeed is what a worker on road reports: the truth times
// 1 + N(0, reportNoise²), with the noise drawn from the op's noise seed,
// clipped to the speeds the collector accepts (it rejects above 160 km/h).
func (w *world) reportSpeed(t tslot.Slot, road int, noise uint64) float64 {
	v := w.truth(t, road) * (1 + reportNoise*hashNormal(noise, uint64(road)))
	return min(max(v, 1), 155)
}

// routeEndpoints draws routePairs endpoint pairs that BFS places
// minHops..maxHops apart and whose trip at routeSlack times each road's
// slowest speed of the day, prior or true, fits the horizon from any
// departure slot.
func routeEndpoints(w *world, wl workload, rng *rand.Rand) ([][2]int, error) {
	g := w.net.Graph()
	n := g.N()
	slowest := make([]float64, n)
	for r := range slowest {
		slowest[r] = math.Inf(1)
	}
	model := w.sys.Model()
	for t := tslot.Slot(0); t < tslot.PerDay; t++ {
		mu := model.At(t).Mu
		for r, v := range mu {
			slowest[r] = min(slowest[r], v*routeSlack, w.truth(t, r)*routeSlack)
		}
	}
	limit := float64(wl.horizon * tslot.Minutes)
	hops := make([]int, n)
	var out [][2]int
	for tries := 0; len(out) < routePairs; tries++ {
		if tries > 100*routePairs {
			return nil, fmt.Errorf("%s: found only %d route endpoint pairs", wl.name, len(out))
		}
		src := rng.IntN(n)
		for i := range hops {
			hops[i] = -1
		}
		hops[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			if hops[u] == wl.maxHops {
				continue
			}
			for _, v := range g.Neighbors(u) {
				if hops[v] < 0 {
					hops[v] = hops[u] + 1
					queue = append(queue, int(v))
				}
			}
		}
		minutes := tripMinutes(w.net, slowest, src, limit)
		var cands []int
		for v, h := range hops {
			if h >= wl.minHops && minutes[v] <= limit {
				cands = append(cands, v)
			}
		}
		if len(cands) > 0 {
			out = append(out, [2]int{src, cands[rng.IntN(len(cands))]})
		}
	}
	return out, nil
}

// tripMinutes is Dijkstra from src over the travel time of each entered road
// at the given speeds (the first road is free), stopping past limit minutes.
// Unreached roads read +Inf. graph.Dijkstra has no such cut-off, and on the
// metro it would search all 100k roads for each candidate pair.
func tripMinutes(net *network.Network, speed []float64, src int, limit float64) []float64 {
	dist := make([]float64, net.N())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h := &minHeap{{src, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(heapItem)
		if it.d > dist[it.node] || it.d > limit {
			continue
		}
		for _, nb := range net.Neighbors(it.node) {
			v := int(nb)
			d := it.d + 60*net.Road(v).LengthKM/speed[v]
			if d < dist[v] {
				dist[v] = d
				heap.Push(h, heapItem{v, d})
			}
		}
	}
	return dist
}

type heapItem struct {
	node int
	d    float64
}

type minHeap []heapItem

func (h minHeap) Len() int           { return len(h) }
func (h minHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h minHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x any)        { *h = append(*h, x.(heapItem)) }
func (h *minHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// hashNormal is a deterministic standard normal draw keyed by (a, b), by
// the Box–Muller transform of two PCG outputs.
func hashNormal(a, b uint64) float64 {
	p := rand.NewPCG(a, b)
	u1 := (float64(p.Uint64()>>11) + 0.5) / (1 << 53)
	u2 := float64(p.Uint64()>>11) / (1 << 53)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
