package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func unitWeight(u, v int) float64 { return 1 }

// halfEdgeWeights prices every half-edge of c with the symmetric edge weight
// w, in the layout DijkstraFlat consumes.
func halfEdgeWeights(c *CSR, w func(u, v int) float64) []float64 {
	hw := make([]float64, c.NumHalfEdges())
	for u := 0; u < c.N(); u++ {
		lo, hi := c.Row(u)
		for k := lo; k < hi; k++ {
			v, _ := c.At(k)
			hw[k] = w(u, int(v))
		}
	}
	return hw
}

// flatDist runs DijkstraFlat from src under the edge weight w.
func flatDist(g *Graph, src int, w func(u, v int) float64) (dist []float64, parent []int32) {
	c := g.BuildCSR()
	dist, parent, _ = c.DijkstraFlat(src, halfEdgeWeights(c, w))
	return dist, parent
}

// distTo runs DijkstraFunc from src, stopping at dst, under the edge weight w
// (not time-dependent: the label at the tail is ignored).
func distTo(g *Graph, src, dst int, w func(u, v int) float64) float64 {
	c := g.BuildCSR()
	hw := halfEdgeWeights(c, w)
	arrive, _ := c.DijkstraFunc(src, dst, 0, func(_ float64, k, _ int32) float64 { return hw[k] })
	return arrive[dst]
}

func TestDijkstraUnitWeights(t *testing.T) {
	g := Ring(6)
	dist, _ := flatDist(g, 0, unitWeight)
	want := []float64{0, 1, 2, 3, 2, 1}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist = %v, want %v", dist, want)
		}
	}
}

func TestDijkstraWeighted(t *testing.T) {
	// Triangle 0-1-2 where going around (0-2-1) is cheaper than direct 0-1.
	g := mustGraph(t, 3, [2]int{0, 1}, [2]int{1, 2}, [2]int{0, 2})
	w := func(u, v int) float64 {
		if u > v {
			u, v = v, u
		}
		switch [2]int{u, v} {
		case [2]int{0, 1}:
			return 10
		case [2]int{0, 2}:
			return 1
		case [2]int{1, 2}:
			return 2
		}
		t.Fatalf("unexpected edge (%d,%d)", u, v)
		return 0
	}
	dist, parent := flatDist(g, 0, w)
	if dist[1] != 3 {
		t.Errorf("dist[1] = %v, want 3 (via node 2)", dist[1])
	}
	path := PathTo(parent, 0, 1)
	want := []int{0, 2, 1}
	if len(path) != 3 {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := mustGraph(t, 4, [2]int{0, 1})
	dist, _ := flatDist(g, 0, unitWeight)
	if !math.IsInf(dist[2], 1) || !math.IsInf(dist[3], 1) {
		t.Errorf("unreachable distances = %v", dist)
	}
	_, parent := flatDist(g, 0, unitWeight)
	if PathTo(parent, 0, 3) != nil {
		t.Error("PathTo to unreachable node should be nil")
	}
}

func TestDijkstraInvalidSource(t *testing.T) {
	g := Path(3)
	dist, _ := flatDist(g, -1, unitWeight)
	for _, d := range dist {
		if !math.IsInf(d, 1) {
			t.Fatalf("invalid source: dist = %v", dist)
		}
	}
}

func TestDijkstraNegativePanics(t *testing.T) {
	g := Path(3)
	defer func() {
		if recover() == nil {
			t.Error("negative weight did not panic")
		}
	}()
	flatDist(g, 0, func(u, v int) float64 { return -1 })
}

func TestDijkstraTo(t *testing.T) {
	g := Grid(4, 4)
	if d := distTo(g, 0, 15, unitWeight); d != 6 {
		t.Errorf("DijkstraFunc corner-to-corner = %v, want 6", d)
	}
	if d := distTo(g, 3, 3, unitWeight); d != 0 {
		t.Errorf("DijkstraFunc(v,v) = %v", d)
	}
	arrive, _ := g.BuildCSR().DijkstraFunc(0, 99, 0, func(float64, int32, int32) float64 { return 1 })
	for _, d := range arrive {
		if !math.IsInf(d, 1) {
			t.Fatalf("DijkstraFunc out of range = %v", arrive)
		}
	}
	g2 := mustGraph(t, 4, [2]int{0, 1})
	if d := distTo(g2, 0, 3, unitWeight); !math.IsInf(d, 1) {
		t.Errorf("DijkstraFunc unreachable = %v", d)
	}
}

func TestPathToEdgeCases(t *testing.T) {
	if PathTo([]int32{-1}, 0, 5) != nil {
		t.Error("PathTo out-of-range dst should be nil")
	}
	p := PathTo([]int32{-1}, 0, 0)
	if len(p) != 1 || p[0] != 0 {
		t.Errorf("PathTo(src==dst) = %v", p)
	}
}

// Property: Dijkstra distances on random weighted graphs satisfy the
// triangle inequality over every edge, and DijkstraFunc stopped at dst agrees
// with the full DijkstraFlat run. Weights are derived deterministically from
// endpoints.
func TestDijkstraProperties(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%25 + 2
		rng := rand.New(rand.NewSource(seed))
		g := New(n)
		for i := 0; i < 3*n; i++ {
			_ = g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		w := func(u, v int) float64 {
			if u > v {
				u, v = v, u
			}
			return float64((u*31+v*17)%13 + 1)
		}
		dist, _ := flatDist(g, 0, w)
		ok := true
		g.Edges(func(u, v int) bool {
			du, dv, wt := dist[u], dist[v], w(u, v)
			if !math.IsInf(du, 1) && dv > du+wt+1e-9 {
				ok = false
				return false
			}
			if !math.IsInf(dv, 1) && du > dv+wt+1e-9 {
				ok = false
				return false
			}
			return true
		})
		if !ok {
			return false
		}
		dst := rng.Intn(n)
		dTo := distTo(g, 0, dst, w)
		if math.IsInf(dist[dst], 1) != math.IsInf(dTo, 1) {
			return false
		}
		if !math.IsInf(dTo, 1) && math.Abs(dTo-dist[dst]) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: PathTo reconstructs a path whose total weight equals the
// reported distance.
func TestPathWeightMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g, _ := RoadNetwork(80, 3, rng)
	w := func(u, v int) float64 {
		if u > v {
			u, v = v, u
		}
		return float64((u*7+v*13)%9 + 1)
	}
	dist, parent := flatDist(g, 0, w)
	for dst := 1; dst < g.N(); dst++ {
		path := PathTo(parent, 0, dst)
		if path == nil {
			t.Fatalf("no path to %d in connected graph", dst)
		}
		var total float64
		for i := 0; i+1 < len(path); i++ {
			if !g.HasEdge(path[i], path[i+1]) {
				t.Fatalf("path %v uses missing edge (%d,%d)", path, path[i], path[i+1])
			}
			total += w(path[i], path[i+1])
		}
		if math.Abs(total-dist[dst]) > 1e-9 {
			t.Fatalf("path weight %v != dist %v for dst %d", total, dist[dst], dst)
		}
	}
}
