package gsp_test

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/gsp"
	"repro/internal/network"
	"repro/internal/rtf"
)

// Observing a sharp slowdown on one end of a strongly correlated chain
// pulls the neighbors' estimates down with decaying influence.
func ExamplePropagate() {
	g := graph.Path(4)
	net, _ := network.New(g, make([]network.Road, 4))
	m := rtf.New(net)
	for i := 0; i < 4; i++ {
		m.SetMu(0, i, 50)
		m.SetSigma(0, i, 5)
	}
	for i := 0; i+1 < 4; i++ {
		m.SetRho(0, i, i+1, 0.9)
	}
	res, _ := gsp.Propagate(context.Background(), net, m.At(0), map[int]float64{0: 20}, gsp.DefaultOptions())
	for i, v := range res.Speeds {
		fmt.Printf("road %d: %.1f km/h\n", i, v)
	}
	// Output:
	// road 0: 20.0 km/h
	// road 1: 29.6 km/h
	// road 2: 35.1 km/h
	// road 3: 37.5 km/h
}
