package graph

import (
	"math"
	"sort"
)

// CSR is the compressed-sparse-row packing of a frozen Graph: all adjacency
// lists live in one flat int32 array sliced by an offsets table, and every
// half-edge carries the id of its undirected edge in EdgeList order. The
// packing replaces the per-node slice-of-slices layout (one allocation and
// one pointer chase per node) and, more importantly, the map[int64]int edge
// lookup on the Dijkstra/GSP hot paths: edge-indexed parameters (ρ, derived
// pairwise Gaussians, transformed path weights) become flat float64 arrays
// indexed by the half-edge position — a single bounds-checked load.
//
// A CSR is immutable once built; it does not observe later AddEdge calls on
// the source graph. Build it after the topology is frozen (package network
// freezes at construction and caches the CSR).
type CSR struct {
	offsets []int32 // len N+1; row u is neigh[offsets[u]:offsets[u+1]]
	neigh   []int32 // len 2M, ascending within each row
	edge    []int32 // len 2M; edge[k] is the undirected edge id of half-edge k
	m       int
}

// BuildCSR packs the graph's current topology. Edge ids follow EdgeList
// order (ascending lexicographic with u < v), which is also the edge order of
// rtf.Model's per-slot ρ tensor — so ρ[edge[k]] is the correlation of
// half-edge k with no translation table.
func (g *Graph) BuildCSR() *CSR {
	n := len(g.adj)
	c := &CSR{offsets: make([]int32, n+1), m: g.edges}
	total := 0
	for u := range g.adj {
		c.offsets[u] = int32(total)
		total += len(g.adj[u])
	}
	c.offsets[n] = int32(total)
	c.neigh = make([]int32, total)
	c.edge = make([]int32, total)
	for u := range g.adj {
		copy(c.neigh[c.offsets[u]:c.offsets[u+1]], g.adj[u])
	}
	// Assign undirected edge ids in EdgeList order on the u<v half-edges,
	// then mirror each id onto the reverse half-edge by binary search in the
	// lower endpoint's row.
	next := int32(0)
	for u := 0; u < n; u++ {
		row := c.neigh[c.offsets[u]:c.offsets[u+1]]
		ids := c.edge[c.offsets[u]:c.offsets[u+1]]
		for k, v := range row {
			if int(v) > u {
				ids[k] = next
				next++
			}
		}
	}
	for u := 0; u < n; u++ {
		row := c.neigh[c.offsets[u]:c.offsets[u+1]]
		ids := c.edge[c.offsets[u]:c.offsets[u+1]]
		for k, v := range row {
			if int(v) < u {
				ids[k] = c.lookupEdgeID(int(v), u)
			}
		}
	}
	return c
}

// lookupEdgeID returns the edge id stored on the (u,v) half-edge, u's row.
func (c *CSR) lookupEdgeID(u, v int) int32 {
	row := c.neigh[c.offsets[u]:c.offsets[u+1]]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= int32(v) })
	return c.edge[int(c.offsets[u])+i]
}

// N returns the number of nodes.
func (c *CSR) N() int { return len(c.offsets) - 1 }

// M returns the number of undirected edges.
func (c *CSR) M() int { return c.m }

// Row returns the half-edge index range [lo, hi) of node u; At resolves each
// half-edge in a single flat loop:
//
//	lo, hi := c.Row(u)
//	for k := lo; k < hi; k++ {
//		v, e := c.At(k) // neighbor node, undirected edge id
//	}
func (c *CSR) Row(u int) (lo, hi int32) { return c.offsets[u], c.offsets[u+1] }

// At returns the neighbor node and undirected edge id of half-edge k.
func (c *CSR) At(k int32) (v, e int32) { return c.neigh[k], c.edge[k] }

// Neighbors returns node u's adjacency as a zero-copy view into the packed
// array, ascending. Must not be modified.
func (c *CSR) Neighbors(u int) []int32 { return c.neigh[c.offsets[u]:c.offsets[u+1]] }

// Degree returns the number of neighbors of u.
func (c *CSR) Degree(u int) int { return int(c.offsets[u+1] - c.offsets[u]) }

// NumHalfEdges returns the length of the packed half-edge arrays (2M) —
// the size callers use to allocate edge-aligned parameter arrays.
func (c *CSR) NumHalfEdges() int { return len(c.neigh) }

// Bytes returns the exact heap footprint of the packed arrays (offsets +
// neighbors + edge ids), for byte-budget accounting.
func (c *CSR) Bytes() int64 {
	return int64(len(c.offsets))*4 + int64(len(c.neigh))*4 + int64(len(c.edge))*4
}

// DijkstraFlat computes single-source shortest paths under non-negative
// per-half-edge weights w (aligned with the packed neighbor array: w[k] is
// the weight of half-edge k). It returns the distance array, parent pointers
// (-1 for src and unreachable nodes) and the undirected edge id used to reach
// each node (-1 where parent is -1).
//
// This is the correlation-oracle miss path: every relaxation is a single
// indexed load, with no callback and no map.
func (c *CSR) DijkstraFlat(src int, w []float64) (dist []float64, parent, parentEdge []int32) {
	st := c.newSearchState()
	c.search(&st, src, -1, 0, math.Inf(1), w, nil)
	return st.dist, st.parent, st.parentEdge
}

// DijkstraFunc is the callback-priced entry of the same search, for costs
// that depend on when a half-edge is entered. Labels start at start on src
// and grow by cost(at, k, v) when half-edge k into v is relaxed from a node
// settled at label at; a +Inf cost makes the half-edge impassable. The search
// stops once dst is settled, so only labels settled by then are final.
// Costs under which a later entry never arrives earlier (FIFO) keep
// label-setting exact when they vary with time. Out-of-range endpoints leave
// every label at +Inf.
func (c *CSR) DijkstraFunc(src, dst int, start float64, cost func(at float64, k, v int32) float64) (arrive []float64, parent []int32) {
	if dst < 0 || dst >= c.N() {
		src = -1 // nothing is reachable from an invalid query
	}
	st := c.newSearchState()
	c.search(&st, src, dst, start, math.Inf(1), nil, cost)
	return st.dist, st.parent
}

// Searcher runs repeated label-limited searches on one CSR in reused working
// memory, for callers that ask many small questions of a large graph: after
// the first search, a search that settles s nodes costs time proportional to
// s and their degrees, not to N. Not safe for concurrent use.
type Searcher struct {
	c   *CSR
	st  searchState
	src int // source of the last search, -1 before the first
}

// NewSearcher allocates a searcher's O(N) working memory.
func (c *CSR) NewSearcher() *Searcher {
	s := &Searcher{c: c, st: c.newSearchState(), src: -1}
	s.st.record = true
	return s
}

// Limited searches from src under the half-edge weights w, settling nodes in
// label order until the next one's label exceeds limit; +Inf settles every
// reachable node. It returns the settled nodes in settle order, src first.
//
// Pushes are never pruned, only popping stops: up to that point the search
// makes exactly the heap operations of DijkstraFlat's full search, so every
// node it settles has the same label, parent and parent edge there. The
// returned slice and Tree stay valid until the next call.
func (s *Searcher) Limited(src int, w []float64, limit float64) []int32 {
	order, _ := s.Until(src, w, limit, nil, nil)
	return order
}

// Until is Limited with a moving limit: once a node v with hit(v) is
// settled at label d, the limit becomes reach(d), so the search goes on
// settling through reach(d) and then stops. hit fires at most once; a nil
// hit never fires. It returns the settled nodes in settle order and the
// limit the search ended under: +Inf when it ran out of reachable nodes
// first, so that every node it did not settle is unreachable from src.
// Settled nodes keep DijkstraFlat's labels and tree whatever the limit does,
// since no push is ever pruned.
func (s *Searcher) Until(src int, w []float64, limit float64, hit func(v int32) bool, reach func(d float64) float64) ([]int32, float64) {
	s.reset()
	s.src = src
	s.st.hit, s.st.reach = hit, reach
	limit = s.c.search(&s.st, src, -1, 0, limit, w, nil)
	s.st.hit, s.st.reach = nil, nil
	return s.st.order, limit
}

// Tree returns the parent and the undirected edge id through which the last
// search settled v (-1, -1 for its source).
func (s *Searcher) Tree(v int32) (parent, edge int32) {
	return s.st.parent[v], s.st.parentEdge[v]
}

// reset restores the labels the last search set. A label is set only on the
// source and when a settled node relaxes a neighbour, so the source, the
// settled nodes and their neighbours cover every write.
func (s *Searcher) reset() {
	st := &s.st
	if s.src >= 0 && s.src < len(st.dist) {
		st.clear(int32(s.src))
	}
	for _, u := range st.order {
		st.done[u] = false
		lo, hi := s.c.offsets[u], s.c.offsets[u+1]
		for k := lo; k < hi; k++ {
			st.clear(s.c.neigh[k])
		}
	}
	st.order = st.order[:0]
}

// searchState is the working memory of one search: labels, the
// shortest-path tree, the settled flags and the heap. order records the
// settle order when record is set, which only a Searcher needs; hit and
// reach are Until's stop rule.
type searchState struct {
	dist       []float64
	parent     []int32
	parentEdge []int32
	done       []bool
	heap       flatHeap
	order      []int32
	record     bool
	hit        func(v int32) bool
	reach      func(d float64) float64
}

// newSearchState allocates the state of a search over c: every label +Inf,
// no tree, nothing settled.
func (c *CSR) newSearchState() searchState {
	n := c.N()
	dist, parent, parentEdge := make([]float64, n), make([]int32, n), make([]int32, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
		parentEdge[i] = -1
	}
	return searchState{dist: dist, parent: parent, parentEdge: parentEdge,
		done: make([]bool, n), heap: make(flatHeap, 0, 64)}
}

// clear unsets v's label and tree edge.
func (st *searchState) clear(v int32) {
	st.dist[v] = math.Inf(1)
	st.parent[v] = -1
	st.parentEdge[v] = -1
}

// search is the one label-setting shortest-path loop behind DijkstraFlat,
// DijkstraFunc and Searcher.Until, run on st, which must hold no labels.
// Half-edge k costs w[k] when w is non-nil, else cost(du, k, v); dst < 0
// settles every reachable node whose label is at most limit, which st.hit
// may move as the search goes. Negative costs panic. It returns the limit
// the search stopped under, or +Inf if the heap ran empty first.
func (c *CSR) search(st *searchState, src, dst int, start, limit float64, w []float64, cost func(at float64, k, v int32) float64) float64 {
	if src < 0 || src >= c.N() {
		return math.Inf(1)
	}
	dist, parent, parentEdge, done := st.dist, st.parent, st.parentEdge, st.done
	record, order := st.record, st.order
	dist[src] = start
	// Inline binary heap: container/heap boxes every pqItem into an
	// interface{} on Push/Pop — one allocation per relaxation, which at metro
	// scale is millions of allocations per search. The hand-rolled heap keeps
	// items in one growing slice and allocates only on capacity growth.
	h := append(st.heap[:0], pqItem{int32(src), start})
	end := math.Inf(1) // unless a stop below fires first
	for len(h) > 0 {
		it := h.pop()
		u := it.node
		if done[u] {
			continue
		}
		if it.dist > limit {
			end = limit
			break
		}
		done[u] = true
		if record {
			order = append(order, u)
		}
		if int(u) == dst {
			end = limit
			break
		}
		du := dist[u]
		if st.hit != nil && st.hit(u) {
			limit = st.reach(du)
			st.hit = nil
		}
		lo, hi := c.offsets[u], c.offsets[u+1]
		for k := lo; k < hi; k++ {
			v := c.neigh[k]
			if done[v] {
				continue
			}
			var wt float64
			if w != nil {
				wt = w[k]
			} else {
				wt = cost(du, k, v)
			}
			if wt < 0 {
				panic("graph: negative half-edge weight in Dijkstra")
			}
			if nd := du + wt; nd < dist[v] {
				dist[v] = nd
				parent[v] = u
				parentEdge[v] = c.edge[k]
				h.push(pqItem{v, nd})
			}
		}
	}
	st.heap, st.order = h[:0], order
	return end
}

// PathTo reconstructs the node sequence src..dst from the parent pointers of
// a search from src. It returns nil if dst is unreachable.
func PathTo(parent []int32, src, dst int) []int {
	if dst < 0 || dst >= len(parent) {
		return nil
	}
	var rev []int
	for v := dst; v != src; {
		rev = append(rev, v)
		p := parent[v]
		if p < 0 {
			return nil
		}
		v = int(p)
	}
	rev = append(rev, src)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// pqItem is a priority-queue entry of the search: a node and its label.
type pqItem struct {
	node int32
	dist float64
}

// flatHeap is a min-heap of pqItems with non-boxing push/pop. Its sift rules
// are container/heap's, so equal labels pop in the same order.
type flatHeap []pqItem

func (h *flatHeap) push(it pqItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].dist <= s[i].dist {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *flatHeap) pop() pqItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(s) && s[l].dist < s[small].dist {
			small = l
		}
		if r < len(s) && s[r].dist < s[small].dist {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

// Layers performs a multi-source breadth-first traversal from sources and
// partitions the remaining reachable nodes into layers by hop distance:
// layers[0] holds nodes at distance 1 from the source set, layers[1] at
// distance 2, and so on. The source nodes themselves are not included;
// out-of-range and duplicate sources are ignored.
//
// This is the BFT scheduling step of GSP (Alg. 5): variables with the same
// minimum hop-count toward the crowdsourced set V_{R^c} are updated in the
// same loop, so information propagates outward one ring at a time.
//
// Nodes unreachable from every source are returned separately in unreachable
// (sorted ascending); in the traffic-network setting those keep their
// periodic mean during propagation.
func (c *CSR) Layers(sources []int) (layers [][]int, unreachable []int) {
	const unvisited = -1
	n := c.N()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = unvisited
	}
	queue := make([]int32, 0, len(sources))
	for _, s := range sources {
		if s < 0 || s >= n || dist[s] == 0 {
			continue
		}
		dist[s] = 0
		queue = append(queue, int32(s))
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		lo, hi := c.offsets[u], c.offsets[u+1]
		for k := lo; k < hi; k++ {
			v := c.neigh[k]
			if dist[v] == unvisited {
				dist[v] = du + 1
				for len(layers) < int(du)+1 {
					layers = append(layers, nil)
				}
				layers[du] = append(layers[du], int(v))
				queue = append(queue, v)
			}
		}
	}
	for u := int32(0); u < int32(n); u++ {
		if dist[u] == unvisited {
			unreachable = append(unreachable, int(u))
		}
	}
	return layers, unreachable
}
