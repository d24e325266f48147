package corr

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rtf"
)

// computeRow is the reference row computation the oracle is checked against:
// Dijkstra through a WeightFunc closure that resolves every edge through the
// graph's edge map, then the ρ-product along each node's tree path through
// the same map. It shares no code with the packed computeRowCSR path.
func computeRow(g *graph.Graph, view rtf.View, tf Transform, src int) []float64 {
	n := g.N()
	_, parent := g.DijkstraTree(src, func(u, v int) float64 {
		rho := view.RhoEdge(u, v)
		if rho <= 0 {
			return math.Inf(1)
		}
		if tf == Reciprocal {
			return 1 / rho
		}
		return -math.Log(rho)
	})
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
			u = int(parent[u])
		}
		base := row[u]
		if base == unset { // orphan chain (disconnected): all zero
			base = 0
			row[u] = 0
		}
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			p := int(parent[w])
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
