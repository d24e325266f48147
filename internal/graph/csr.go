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

// Row returns the half-edge index range [lo, hi) of node u. Iterate
// Neighbors(u) and EdgeIDs(u) in lockstep, or index neigh/edge arrays via
// At for a single flat loop:
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

// EdgeIDs returns the undirected edge ids aligned with Neighbors(u).
// Must not be modified.
func (c *CSR) EdgeIDs(u int) []int32 { return c.edge[c.offsets[u]:c.offsets[u+1]] }

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
	return c.search(src, -1, 0, w, nil)
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
	arrive, parent, _ = c.search(src, dst, start, nil, cost)
	return arrive, parent
}

// search is the one label-setting shortest-path loop behind DijkstraFlat and
// DijkstraFunc. Half-edge k costs w[k] when w is non-nil, else cost(du, k, v);
// dst < 0 settles every reachable node. Negative costs panic.
func (c *CSR) search(src, dst int, start float64, w []float64, cost func(at float64, k, v int32) float64) (dist []float64, parent, parentEdge []int32) {
	n := c.N()
	dist = make([]float64, n)
	parent = make([]int32, n)
	parentEdge = make([]int32, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
		parentEdge[i] = -1
	}
	if src < 0 || src >= n {
		return dist, parent, parentEdge
	}
	dist[src] = start
	done := make([]bool, n)
	// Inline binary heap: container/heap boxes every pqItem into an
	// interface{} on Push/Pop — one allocation per relaxation, which at metro
	// scale is millions of allocations per search. The hand-rolled heap keeps
	// items in one growing slice and allocates only on capacity growth.
	h := make(flatHeap, 1, 64)
	h[0] = pqItem{int32(src), start}
	for len(h) > 0 {
		it := h.pop()
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if int(u) == dst {
			break
		}
		du := dist[u]
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
	return dist, parent, parentEdge
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
