package corr

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/rtf"
	"repro/internal/tslot"
)

// chainOracle builds a path graph 0-1-2-...-(n-1) with the given edge ρs.
func chainOracle(t *testing.T, rhos []float64, tf Transform) *Oracle {
	t.Helper()
	n := len(rhos) + 1
	g := graph.Path(n)
	net, err := network.New(g, make([]network.Road, n))
	if err != nil {
		t.Fatal(err)
	}
	m := rtf.New(net)
	for i, r := range rhos {
		m.SetRho(0, i, i+1, r)
	}
	return NewOracle(g, m.At(0), tf)
}

func TestTransformString(t *testing.T) {
	if NegLog.String() != "neglog" || Reciprocal.String() != "reciprocal" {
		t.Error("transform names wrong")
	}
	if Transform(9).String() == "" {
		t.Error("unknown transform name empty")
	}
}

func TestSelfCorrelation(t *testing.T) {
	o := chainOracle(t, []float64{0.5, 0.5}, NegLog)
	if o.Corr(1, 1) != 1 {
		t.Errorf("corr(i,i) = %v", o.Corr(1, 1))
	}
	if o.CorrRow(0)[0] != 1 {
		t.Errorf("CorrRow self = %v", o.CorrRow(0)[0])
	}
}

func TestAdjacentUsesEdgeWeight(t *testing.T) {
	// Eq. (7): adjacent roads report ρ even when a longer path has a larger
	// product. Build a triangle with a weak direct edge and strong detour.
	g := graph.Ring(3)
	net, err := network.New(g, make([]network.Road, 3))
	if err != nil {
		t.Fatal(err)
	}
	m := rtf.New(net)
	m.SetRho(0, 0, 1, 0.1)  // weak direct edge
	m.SetRho(0, 1, 2, 0.95) // strong detour 0-2-1 with product 0.9025
	m.SetRho(0, 0, 2, 0.95)
	o := NewOracle(g, m.At(0), NegLog)
	if got := o.Corr(0, 1); got != 0.1 {
		t.Errorf("adjacent corr = %v, want edge weight 0.1", got)
	}
}

func TestPathProduct(t *testing.T) {
	o := chainOracle(t, []float64{0.9, 0.8, 0.7}, NegLog)
	if got, want := o.Corr(0, 2), 0.9*0.8; math.Abs(got-want) > 1e-12 {
		t.Errorf("corr(0,2) = %v, want %v", got, want)
	}
	if got, want := o.Corr(0, 3), 0.9*0.8*0.7; math.Abs(got-want) > 1e-12 {
		t.Errorf("corr(0,3) = %v, want %v", got, want)
	}
}

func TestMaxProductPathChosen(t *testing.T) {
	// Two paths from 0 to 3: 0-1-3 with product 0.9*0.2=0.18 and
	// 0-2-3 with product 0.7*0.7=0.49. NegLog must pick the second.
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	net, err := network.New(g, make([]network.Road, 4))
	if err != nil {
		t.Fatal(err)
	}
	m := rtf.New(net)
	m.SetRho(0, 0, 1, 0.9)
	m.SetRho(0, 1, 3, 0.2)
	m.SetRho(0, 0, 2, 0.7)
	m.SetRho(0, 2, 3, 0.7)
	o := NewOracle(g, m.At(0), NegLog)
	if got := o.Corr(0, 3); math.Abs(got-0.49) > 1e-12 {
		t.Errorf("max-product corr(0,3) = %v, want 0.49", got)
	}
}

func TestReciprocalCanBeSuboptimal(t *testing.T) {
	// The reciprocal transform (paper Eq. 9) picks the min Σ1/ρ path, which
	// here differs from the max-product path:
	// path A: edges {0.5, 0.5}: Σ1/ρ = 4, product 0.25
	// path B: one edge {0.26}: Σ1/ρ ≈ 3.85, product 0.26... both valid;
	// craft so reciprocal picks the worse product:
	// A: {0.9, 0.35}: Σ1/ρ ≈ 1.11+2.86 = 3.97, product 0.315
	// B: {0.5, 0.51}: Σ1/ρ = 2+1.96 = 3.96, product 0.255  ← reciprocal pick
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	net, err := network.New(g, make([]network.Road, 4))
	if err != nil {
		t.Fatal(err)
	}
	m := rtf.New(net)
	m.SetRho(0, 0, 1, 0.9)
	m.SetRho(0, 1, 3, 0.35)
	m.SetRho(0, 0, 2, 0.5)
	m.SetRho(0, 2, 3, 0.51)
	exact := NewOracle(g, m.At(0), NegLog).Corr(0, 3)
	heur := NewOracle(g, m.At(0), Reciprocal).Corr(0, 3)
	if math.Abs(exact-0.9*0.35) > 1e-12 {
		t.Errorf("NegLog corr = %v, want %v", exact, 0.9*0.35)
	}
	if math.Abs(heur-0.5*0.51) > 1e-12 {
		t.Errorf("Reciprocal corr = %v, want %v", heur, 0.5*0.51)
	}
	if heur >= exact {
		t.Errorf("expected reciprocal (%v) below exact (%v) on this instance", heur, exact)
	}
}

func TestUnreachableIsZero(t *testing.T) {
	g := graph.New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	net, err := network.New(g, make([]network.Road, 3))
	if err != nil {
		t.Fatal(err)
	}
	m := rtf.New(net)
	m.SetRho(0, 0, 1, 0.8)
	o := NewOracle(g, m.At(0), NegLog)
	if got := o.Corr(0, 2); got != 0 {
		t.Errorf("unreachable corr = %v", got)
	}
}

func TestCorrRowPanicsOutOfRange(t *testing.T) {
	o := chainOracle(t, []float64{0.5}, NegLog)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range source did not panic")
		}
	}()
	o.CorrRow(99)
}

func TestRowCaching(t *testing.T) {
	o := chainOracle(t, []float64{0.9, 0.8}, NegLog)
	r1 := o.CorrRow(0)
	r2 := o.CorrRow(0)
	if &r1[0] != &r2[0] {
		t.Error("CorrRow not cached")
	}
}

// TestSetCorrelations pins the row values Eq. (11)–(13) combine (package ocs
// takes the max over a set and the σ-weighted sum over the query) on the
// chain 0–1–2–3–4 with ρ 0.9, 0.8, 0.7, 0.6.
func TestSetCorrelations(t *testing.T) {
	o := chainOracle(t, []float64{0.9, 0.8, 0.7, 0.6}, NegLog)
	row0, row4 := o.CorrRow(0), o.CorrRow(4)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"corr(0, 2)", row0[2], 0.72},
		{"corr(0, 3)", row0[3], 0.72 * 0.7},
		{"corr(4, 2)", row4[2], 0.7 * 0.6},
		{"corr(0, {2, 3})", max(row0[2], row0[3]), 0.72},
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// Property: on random fitted networks, correlations are in [0,1], symmetric,
// and NegLog path values dominate Reciprocal path values (both are products
// over real paths; NegLog picks the optimum).
func TestOracleProperties(t *testing.T) {
	f := func(seed int64) bool {
		net := network.Synthetic(network.SyntheticOptions{Roads: 40, Seed: seed})
		m := rtf.New(net)
		// Deterministic pseudo-random ρ from edge endpoints.
		for _, e := range m.Edges() {
			rho := 0.1 + 0.89*float64((e[0]*131+e[1]*37)%100)/100
			m.SetRho(0, e[0], e[1], rho)
		}
		exact := NewOracle(net.Graph(), m.At(0), NegLog)
		heur := NewOracle(net.Graph(), m.At(0), Reciprocal)
		for i := 0; i < 40; i += 7 {
			for j := 0; j < 40; j += 5 {
				ce, ch := exact.Corr(i, j), heur.Corr(i, j)
				if ce < 0 || ce > 1 || ch < 0 || ch > 1 {
					return false
				}
				if math.Abs(ce-exact.Corr(j, i)) > 1e-9 {
					return false
				}
				// Adjacent pairs are pinned to ρ for both transforms.
				if net.Adjacent(i, j) {
					if ce != ch {
						return false
					}
					continue
				}
				if ch > ce+1e-9 {
					return false // heuristic cannot beat the optimum
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: correlation is monotone under set growth (Eq. 11 is a max), and
// the row Reach returns for each grown set knows its best member exactly.
func TestRoadSetMonotoneProperty(t *testing.T) {
	net := network.Synthetic(network.SyntheticOptions{Roads: 50, Seed: 77})
	m := rtf.New(net)
	for _, e := range m.Edges() {
		m.SetRho(tslot.Slot(0), e[0], e[1], 0.2+0.7*float64((e[0]+e[1])%10)/10)
	}
	o := NewOracle(net.Graph(), m.At(0), NegLog)
	full := NewOracle(net.Graph(), m.At(0), NegLog).CorrRow(0)
	set := []int{}
	prev := 0.0
	for _, r := range []int{5, 12, 33, 47, 2} {
		set = append(set, r)
		row := o.Reach(0, set)
		cur, want := 0.0, 0.0
		for _, j := range set {
			if c, ok := row.At(j); ok {
				cur = max(cur, c)
			}
			want = max(want, full[j])
		}
		if cur != want || cur < row.Bound() {
			t.Fatalf("set %v: Reach's row gives corr %v (bound %v), complete row %v", set, cur, row.Bound(), want)
		}
		if cur+1e-12 < prev {
			t.Fatalf("corr(0, set) decreased when growing set: %v -> %v", prev, cur)
		}
		prev = cur
	}
}
