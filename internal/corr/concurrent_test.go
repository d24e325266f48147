package corr

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/network"
	"repro/internal/rtf"
)

// seededOracleView builds a synthetic fitted view for concurrency tests.
func seededOracleView(roads int, seed int64) (*network.Network, rtf.View) {
	net := network.Synthetic(network.SyntheticOptions{Roads: roads, Seed: seed})
	m := rtf.New(net)
	rng := rand.New(rand.NewSource(seed + 1))
	for _, e := range m.Edges() {
		m.SetRho(0, e[0], e[1], 0.1+0.89*rng.Float64())
	}
	return net, m.At(0)
}

// TestCorrRowSingleflight is the regression test for the
// check-compute-store race: 32 goroutines hammer one row concurrently and
// the Dijkstra must run exactly once (miss counter == 1), with every caller
// receiving the same cached slice.
func TestCorrRowSingleflight(t *testing.T) {
	net, view := seededOracleView(120, 7)
	o := NewOracle(net.Graph(), view, NegLog)

	const goroutines = 32
	rows := make([][]float64, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rows[i] = o.CorrRow(17)
		}(i)
	}
	close(start)
	wg.Wait()

	st := o.Stats()
	if st.Misses != 1 {
		t.Errorf("singleflight ran the Dijkstra %d times, want exactly 1", st.Misses)
	}
	if st.Hits+st.InflightWaits != goroutines-1 {
		t.Errorf("hits (%d) + inflight waits (%d) = %d, want %d",
			st.Hits, st.InflightWaits, st.Hits+st.InflightWaits, goroutines-1)
	}
	for i := 1; i < goroutines; i++ {
		if &rows[i][0] != &rows[0][0] {
			t.Fatalf("goroutine %d received a different row slice", i)
		}
	}
	if st.ResidentRows != 1 {
		t.Errorf("resident rows = %d, want 1", st.ResidentRows)
	}
	// ResidentBytes is exact: the one published row (payload + slice header),
	// the row-pointer table, and the flat structures the first miss
	// materialized — the self-built CSR packing and the half-edge weights.
	c := net.Graph().BuildCSR()
	want := int64(net.N())*8 + 24 + // the row
		int64(net.N())*8 + // row-pointer table
		c.Bytes() + // CSR packing (oracle built its own)
		int64(c.NumHalfEdges())*8 // half-edge weight array
	if st.ResidentBytes != want {
		t.Errorf("resident bytes = %d, want %d", st.ResidentBytes, want)
	}
}

// TestConcurrentMixedRows stresses many goroutines over many rows under
// -race: every row must be computed exactly once no matter the interleaving.
func TestConcurrentMixedRows(t *testing.T) {
	net, view := seededOracleView(90, 11)
	o := NewOracle(net.Graph(), view, NegLog, WithShards(8))

	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				src := rng.Intn(net.N())
				row := o.CorrRow(src)
				if len(row) != net.N() {
					t.Errorf("row length %d", len(row))
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := o.Stats()
	if int(st.Misses) != st.ResidentRows {
		t.Errorf("misses (%d) != resident rows (%d): some row was computed twice",
			st.Misses, st.ResidentRows)
	}
	if st.ResidentRows > net.N() {
		t.Errorf("resident rows %d exceeds road count %d", st.ResidentRows, net.N())
	}
}

// TestWarmPrecomputesOnce warms a road set in parallel and checks every row
// became resident with exactly one miss per distinct road; subsequent
// lookups are pure hits.
func TestWarmPrecomputesOnce(t *testing.T) {
	net, view := seededOracleView(60, 3)
	o := NewOracle(net.Graph(), view, NegLog, WithWarmWorkers(4))

	roads := []int{1, 3, 3, 5, 7, 9, 9, 11, -2, 999} // dups + out-of-range ignored
	o.Warm(roads)

	st := o.Stats()
	if st.Misses != 6 {
		t.Errorf("warm misses = %d, want 6 distinct valid roads", st.Misses)
	}
	before := st.Hits
	for _, r := range []int{1, 3, 5, 7, 9, 11} {
		o.CorrRow(r)
	}
	st = o.Stats()
	if st.Misses != 6 {
		t.Errorf("post-warm lookups recomputed rows: misses = %d", st.Misses)
	}
	if st.Hits != before+6 {
		t.Errorf("post-warm lookups were not hits: %d -> %d", before, st.Hits)
	}
	// Warming again is a no-op.
	o.Warm(roads)
	if st2 := o.Stats(); st2.Misses != 6 {
		t.Errorf("re-warm recomputed rows: misses = %d", st2.Misses)
	}
}
