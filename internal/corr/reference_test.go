package corr

import (
	"container/heap"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rtf"
)

// refItem and refHeap are the reference Dijkstra's textbook container/heap
// priority queue.
type refItem struct {
	node int
	dist float64
}

type refHeap []refItem

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// refParents is a textbook Dijkstra over the graph's adjacency lists under
// the transformed weight of every edge, resolved through the graph's edge
// map; it returns the shortest-path tree's parent pointers (-1 for src and
// unreachable nodes).
func refParents(g *graph.Graph, view rtf.View, tf Transform, src int) []int {
	n := g.N()
	dist := make([]float64, n)
	parent := make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[src] = 0
	done := make([]bool, n)
	h := &refHeap{{src, 0}}
	for h.Len() > 0 {
		u := heap.Pop(h).(refItem).node
		if done[u] {
			continue
		}
		done[u] = true
		for _, nb := range g.Neighbors(u) {
			v := int(nb)
			if done[v] {
				continue
			}
			if nd := dist[u] + refWeight(view.RhoEdge(u, v), tf); nd < dist[v] {
				dist[v] = nd
				parent[v] = u
				heap.Push(h, refItem{v, nd})
			}
		}
	}
	return parent
}

// refWeight is the transformed path weight of an edge with correlation rho.
func refWeight(rho float64, tf Transform) float64 {
	if rho <= 0 {
		return math.Inf(1)
	}
	if tf == Reciprocal {
		return 1 / rho
	}
	return -math.Log(rho)
}

// computeRow is the reference row computation the oracle is checked against:
// a textbook Dijkstra that resolves every edge through the graph's edge map,
// then the ρ-product along each node's tree path through the same map. It
// shares no code with the packed computeRowCSR path.
func computeRow(g *graph.Graph, view rtf.View, tf Transform, src int) []float64 {
	n := g.N()
	parent := refParents(g, view, tf, src)
	row := make([]float64, n)
	// Resolve prod[v] = prod[parent[v]] · ρ(parent[v], v) lazily with an
	// explicit stack to avoid recursion on long paths.
	const unset = -1.0
	for i := range row {
		row[i] = unset
	}
	row[src] = 1
	stack := make([]int, 0, 64)
	for v := 0; v < n; v++ {
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
		base := row[u]
		if base == unset { // orphan chain (disconnected): all zero
			base = 0
			row[u] = 0
		}
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			p := parent[w]
			if base == 0 {
				row[w] = 0
				continue
			}
			row[w] = row[p] * view.RhoEdge(p, w)
		}
	}
	// Eq. (7): adjacency overrides the path value.
	for _, nb := range g.Neighbors(src) {
		row[nb] = view.RhoEdge(src, int(nb))
	}
	return row
}

// TestCorrRowMatchesReference checks that the oracle's packed row path
// serves bit-for-bit the rows of the map-based reference, under both the
// exact NegLog transform and the paper's Reciprocal ablation.
func TestCorrRowMatchesReference(t *testing.T) {
	net, view := seededOracleView(70, 21)
	for _, tf := range []Transform{NegLog, Reciprocal} {
		o := NewOracle(net.Graph(), view, tf)
		for src := 0; src < net.N(); src++ {
			got, want := o.CorrRow(src), computeRow(net.Graph(), view, tf, src)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%v row %d differs at %d: oracle %v, reference %v", tf, src, j, got[j], want[j])
				}
			}
		}
	}
}
