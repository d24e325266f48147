package corr

import (
	"testing"
)

// Benchmark of the oracle row computation — the hot miss path: Dijkstra over
// the flat half-edge weights, edge ids read from the packing. Run with
// -benchmem; EXPERIMENTS records the allocs/op and ns/op.

func benchRows(b *testing.B, n int) {
	net, view := seededOracleView(n, 1)
	c := net.Graph().BuildCSR()
	o := &Oracle{g: net.Graph(), view: view, tf: NegLog, csr: c}
	hw, _ := o.flatWeights()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = computeRowCSR(c, view, hw, i%n)
	}
}

func BenchmarkRowComputeCSR600(b *testing.B) { benchRows(b, 600) }

func BenchmarkRowComputeCSR5000(b *testing.B) { benchRows(b, 5000) }
