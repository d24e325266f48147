package corr

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/network"
	"repro/internal/rtf"
	"repro/internal/speedgen"
)

// fittedMetroView is slot 100 of the fitted model of a 5k-road generated
// metro.
func fittedMetroView(tb testing.TB) (*network.Network, rtf.View) {
	tb.Helper()
	net := network.Metro(network.MetroOptions{Roads: 5000, Seed: 7})
	model, _, err := speedgen.MetroModel(net, speedgen.MetroConfig{Seed: 8})
	if err != nil {
		tb.Fatal(err)
	}
	return net, model.At(100)
}

// prefixError describes how row disagrees with src's complete row full, or
// returns "": every road it knows, and every Eq. (7) neighbour of src, must
// read bit for bit as in full; every other road must be non-negative and at
// most the row's bound.
func prefixError(o *Oracle, src int, row *Row, full []float64) string {
	for _, v := range o.csr.Neighbors(src) {
		if _, ok := row.At(int(v)); !ok {
			return fmt.Sprintf("src %d: Eq. (7) neighbour %d left unsettled", src, v)
		}
	}
	roads, vals := row.Known()
	if row.Complete() {
		vals = row.Dense()
	}
	i := 0
	for j, want := range full {
		c, known := 0.0, row.Complete()
		if known {
			c = vals[j]
		} else if i < len(roads) && int(roads[i]) == j {
			c, known = vals[i], true
			i++
		}
		switch {
		case known:
			if math.Float64bits(c) != math.Float64bits(want) {
				return fmt.Sprintf("src %d: road %d reads %v, complete row %v", src, j, c, want)
			}
		case !(want >= 0 && want <= row.bound):
			return fmt.Sprintf("src %d: unsettled road %d has corr %v outside [0, B = %v] (limit %v)",
				src, j, want, row.bound, row.limit)
		}
	}
	return ""
}

// TestRowPrefixBound checks the certified rows directly: from every source of
// a fitted 5k view, the prefix cut at Γ = ε for ε ∈ {1e-2, 1e-3, 1e-6, 1e-9}
// knows every road it settled and every Eq. (7) neighbour bit for bit, and
// bounds every other road by B(L). Roads just past the limit carry products
// close to e^(−L), so a bound even half as large fails here. Under -race,
// which adds only the concurrent searches to check, every 10th source.
func TestRowPrefixBound(t *testing.T) {
	net, view := fittedMetroView(t)
	o := NewOracle(net.Graph(), view, NegLog)
	cuts := []float64{1e-2, 1e-3, 1e-6, 1e-9}
	step := 1
	if raceEnabled {
		step = 10
	}
	// The sources are split across GOMAXPROCS goroutines; o.search is safe
	// for concurrent use and publishes nothing.
	var wg sync.WaitGroup
	var prefixes atomic.Int64
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for src := w * step; src < net.N(); src += workers * step {
				full := o.search(src, math.Inf(1), nil, nil).Dense()
				for _, eps := range cuts {
					prefix := o.search(src, -math.Log(eps), nil, nil)
					if !prefix.Complete() {
						prefixes.Add(1)
					}
					if err := prefixError(o, src, prefix, full); err != "" {
						t.Errorf("ε = %g: %s", eps, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n, all := prefixes.Load(), len(cuts)*net.N()/step; n < int64(all)/4 {
		t.Fatalf("only %d of %d cuts left a prefix", n, all)
	}
}

// TestRowConcurrentDeepening deepens one row from many goroutines at once —
// step by step, out to a set's nearest member, and to complete — while
// others read it, under -race. Every row any goroutine sees must agree with
// the complete row on what it settled, and each reader must see the
// published limit only grow.
func TestRowConcurrentDeepening(t *testing.T) {
	net, view := fittedMetroView(t)
	full := NewOracle(net.Graph(), view, NegLog)
	for _, src := range []int{17, 2500, 4999} {
		want := full.CorrRow(src)
		o := NewOracle(net.Graph(), view, NegLog)
		// The shallowest prefix: src and its Eq. (7) neighbours.
		if o.Reach(src, []int{src}).Complete() {
			t.Fatalf("src %d: the first row is already complete", src)
		}
		var wg sync.WaitGroup
		errs := make(chan string, 64)
		seen := func(label string, r *Row) {
			if err := prefixError(o, src, r, want); err != "" {
				select {
				case errs <- label + ": " + err:
				default:
				}
			}
		}
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				switch g % 4 {
				case 0: // step by step
					r := o.Row(src)
					for !r.Complete() {
						r = o.Deepen(src, r)
						seen("deepen", r)
					}
				case 1: // out to random sets' nearest members
					for i := 0; i < 6; i++ {
						set := []int{rng.Intn(net.N()), rng.Intn(net.N())}
						seen("reach", o.Reach(src, set))
					}
				case 2:
					if vals := o.CorrRow(src); len(vals) != net.N() {
						errs <- "short complete row"
					}
				default: // readers
					last := math.Inf(-1)
					for i := 0; i < 200; i++ {
						r := o.Row(src)
						if r.limit < last {
							errs <- "the published limit decreased"
							return
						}
						last = r.limit
						seen("read", r)
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Errorf("src %d: %s", src, e)
		}
		if st := o.Stats(); st.Misses != 1 || st.ResidentRows != 1 {
			t.Errorf("src %d: %d misses and %d resident rows, want 1 and 1", src, st.Misses, st.ResidentRows)
		}
	}
}

// TestReachReciprocalCompletes: under Reciprocal a label bounds no
// correlation, so Reach on a fresh oracle creates the complete row, as Row
// does, rather than a prefix cut at the set's nearest member.
func TestReachReciprocalCompletes(t *testing.T) {
	rhos := []float64{0.9, 0.8, 0.7, 0.6}
	r := chainOracle(t, rhos, Reciprocal).Reach(0, []int{2})
	want := chainOracle(t, rhos, Reciprocal).CorrRow(0)
	if !r.Complete() || !slices.Equal(r.Dense(), want) {
		t.Fatalf("Reach under Reciprocal: complete %v, row %v, want complete %v", r.Complete(), r.Dense(), want)
	}
}
