package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLayersSingleSource(t *testing.T) {
	// 0-1-2-3 path, source {0}: layers are {1}, {2}, {3}.
	g := Path(4)
	layers, unreachable := g.BuildCSR().Layers([]int{0})
	if len(unreachable) != 0 {
		t.Fatalf("unreachable = %v", unreachable)
	}
	want := [][]int{{1}, {2}, {3}}
	if len(layers) != len(want) {
		t.Fatalf("layers = %v", layers)
	}
	for i := range want {
		if len(layers[i]) != 1 || layers[i][0] != want[i][0] {
			t.Fatalf("layers = %v, want %v", layers, want)
		}
	}
}

func TestLayersMultiSource(t *testing.T) {
	// path 0-1-2-3-4, sources {0,4}: layer0={1,3}, layer1={2}.
	g := Path(5)
	layers, _ := g.BuildCSR().Layers([]int{0, 4})
	if len(layers) != 2 {
		t.Fatalf("layers = %v", layers)
	}
	if len(layers[0]) != 2 || len(layers[1]) != 1 || layers[1][0] != 2 {
		t.Fatalf("layers = %v", layers)
	}
}

func TestLayersUnreachable(t *testing.T) {
	g := mustGraph(t, 5, [2]int{0, 1}, [2]int{3, 4})
	layers, unreachable := g.BuildCSR().Layers([]int{0})
	if len(layers) != 1 || layers[0][0] != 1 {
		t.Fatalf("layers = %v", layers)
	}
	if len(unreachable) != 3 { // 2, 3, 4
		t.Fatalf("unreachable = %v", unreachable)
	}
}

func TestLayersInvalidAndDuplicateSources(t *testing.T) {
	g := Path(3)
	layers, unreachable := g.BuildCSR().Layers([]int{-1, 0, 0, 99})
	if len(layers) != 2 {
		t.Fatalf("layers = %v", layers)
	}
	if len(unreachable) != 0 {
		t.Fatalf("unreachable = %v", unreachable)
	}
}

func TestLayersNoSources(t *testing.T) {
	g := Path(3)
	layers, unreachable := g.BuildCSR().Layers(nil)
	if len(layers) != 0 || len(unreachable) != 3 {
		t.Fatalf("layers=%v unreachable=%v", layers, unreachable)
	}
}

func TestHopDistances(t *testing.T) {
	g := Ring(6)
	d := g.HopDistances([]int{0})
	want := []int{0, 1, 2, 3, 2, 1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("HopDistances = %v, want %v", d, want)
		}
	}
}

func TestWithinHops(t *testing.T) {
	g := Path(6)
	got := g.WithinHops([]int{2}, 1)
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("WithinHops = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("WithinHops = %v, want %v", got, want)
		}
	}
	all := g.WithinHops([]int{2}, 100)
	if len(all) != 6 {
		t.Fatalf("WithinHops(k=100) = %v", all)
	}
}

func TestBFSOrder(t *testing.T) {
	g := Star(5)
	order := g.BFSOrder(0)
	if len(order) != 5 || order[0] != 0 {
		t.Fatalf("BFSOrder = %v", order)
	}
	if BFSOrderInvalid := g.BFSOrder(-1); BFSOrderInvalid != nil {
		t.Errorf("BFSOrder(-1) = %v", BFSOrderInvalid)
	}
}

func TestConnectedSubset(t *testing.T) {
	g := Grid(5, 5)
	sub := g.ConnectedSubset(12, 10)
	if len(sub) != 10 {
		t.Fatalf("ConnectedSubset size = %d", len(sub))
	}
	sg, _, err := g.Subgraph(sub)
	if err != nil {
		t.Fatal(err)
	}
	if !sg.Connected() {
		t.Error("ConnectedSubset induced subgraph is disconnected")
	}
	if g.ConnectedSubset(0, 26) != nil {
		t.Error("oversize ConnectedSubset should be nil")
	}
}

// Property: layers agree with HopDistances, and every layer node's distance
// equals its layer index + 1.
func TestLayersMatchDistancesProperty(t *testing.T) {
	f := func(seed int64, nRaw, sRaw uint8) bool {
		n := int(nRaw)%30 + 2
		rng := rand.New(rand.NewSource(seed))
		g := New(n)
		for i := 0; i < 2*n; i++ {
			_ = g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		src := int(sRaw) % n
		layers, unreachable := g.BuildCSR().Layers([]int{src})
		dist := g.HopDistances([]int{src})
		covered := map[int]bool{src: true}
		for li, layer := range layers {
			for _, u := range layer {
				if dist[u] != li+1 {
					return false
				}
				covered[u] = true
			}
		}
		for _, u := range unreachable {
			if dist[u] != -1 {
				return false
			}
			covered[u] = true
		}
		return len(covered) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
