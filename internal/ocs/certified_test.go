package ocs

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/corr"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/rtf"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

// handProblem builds a unit-cost, unit-σ instance over a 100-road graph
// whose only edges carry the given ρs; the other roads are isolated padding,
// so every row's first prefix holds a small share of the network and stays
// a prefix.
func handProblem(t *testing.T, edges map[[2]int]float64, query, workers []int) *Problem {
	t.Helper()
	const n = 100
	g := graph.New(n)
	for uv := range edges {
		if err := g.AddEdge(uv[0], uv[1]); err != nil {
			t.Fatal(err)
		}
	}
	list := g.EdgeList()
	rho := make([]float64, len(list))
	for e, uv := range list {
		rho[e] = edges[[2]int{uv[0], uv[1]}]
	}
	sigma, costs := make([]float64, n), make([]int, n)
	for i := range sigma {
		sigma[i], costs[i] = 1, 1
	}
	return &Problem{Query: query, Workers: workers, Costs: costs, Budget: 1, Theta: 0.92,
		Sigma: sigma, Oracle: corr.NewOracle(g, rtf.View{Rho: rho}, corr.NegLog)}
}

// TestCertificateSettlesNearTies pins the two halves of the certified greedy
// on instances where the candidates' known gains differ by less than the
// unsettled width. Query roads 0 and 1, workers A = 2 and B = 3, budget one
// road. B is an Eq. (7) neighbour of road 1 with ρ = 5e-4, so its gain
// 5e-4 is known while the rows' first prefixes bound the unsettled roads by
// about 1e-3.
//
//   - A is isolated, so its true gain is 0, but its key is the two rows'
//     bounds, 2e-3, above B's 1.5e-3: picking the top without its
//     certificate picks A.
//   - A sits two hops from road 0 through ρ 0.9 and 1e-3, so its gain 9e-4
//     beats B's, yet its road lies just past the first prefix: a bound even
//     1000 times too small lets B's key outrank it and picks B.
//
// The third instance pins the staleness of a deepening: query road 0 with
// one edge {0, 1}, ρ = 1e-4, and isolated workers 2, 3 and 5, all three
// ranked [0, ~1e-3] on the first prefix. The first deepening completes row
// 0; road 5, ranked on the prefix and never re-ranked, must not be taken
// for a fresh top whose pair no row can narrow: every gain is 0, so the tie
// goes to road 2.
func TestCertificateSettlesNearTies(t *testing.T) {
	for _, tc := range []struct {
		name           string
		edges          map[[2]int]float64
		query, workers []int
		want           int
	}{
		{"isolated A", map[[2]int]float64{{0, 4}: 1e-4, {4, 5}: 0.5, {1, 3}: 5e-4}, []int{0, 1}, []int{2, 3}, 3},
		{"A past the prefix", map[[2]int]float64{{0, 4}: 0.9, {2, 4}: 1e-3, {1, 3}: 5e-4}, []int{0, 1}, []int{2, 3}, 2},
		{"ranked before a deepening", map[[2]int]float64{{0, 1}: 1e-4}, []int{0}, []int{2, 3, 5}, 2},
	} {
		for _, sv := range greedySolvers {
			p := handProblem(t, tc.edges, tc.query, tc.workers)
			got, err := sv.run(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Roads) != 1 || got.Roads[0] != tc.want {
				t.Errorf("%s %s: picked %v, want [%d]", tc.name, sv.name, got.Roads, tc.want)
			}
			checkAgainstReference(t, tc.name, handProblem(t, tc.edges, tc.query, tc.workers))
		}
	}
}

// referenceRandom is Random over the reference state: the same permutation,
// feasibility read off complete rows, and the value from complete rows.
func referenceRandom(p *Problem, seed int64) Solution {
	s := newGreedyState(p)
	for _, idx := range rand.New(rand.NewSource(seed)).Perm(len(p.Workers)) {
		if r := p.Workers[idx]; p.Costs[r] <= p.Budget-s.cost && !s.redundant(r) {
			s.add(r)
		}
	}
	sort.Ints(s.selected)
	return Solution{Roads: s.selected, Value: referenceValue(p, s.selected), Cost: s.cost}
}

// TestCertifiedMatchesEagerMetro is the equivalence corpus of the certified
// rows on a 30k-road generated metro, where first prefixes leave most
// roads unsettled: the dispatch shape (33 query roads, 2000 workers,
// K = 30), 200 workers under K = 60, and 5-road queries over 2000 workers,
// two of each, × Hybrid, Ratio, OBJ, VarMin, RouteVar and Rand × θ ∈ {0.3,
// 0.5, 0.8, 0.92, 1}. Every solve runs on one shared slot oracle whose rows
// grow as the corpus goes, and must return the eager reference's roads,
// value bits and cost, computed on complete rows of a second oracle.
func TestCertifiedMatchesEagerMetro(t *testing.T) {
	net := network.Metro(network.MetroOptions{Roads: 30_000, Seed: 7})
	model, _, err := speedgen.MetroModel(net, speedgen.MetroConfig{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	const slot = tslot.Slot(100)
	view := model.At(slot)
	n := net.N()
	oracle := corr.NewOracle(net.Graph(), view, corr.NegLog, corr.WithCSR(net.CSR()))
	ref := corr.NewOracle(net.Graph(), view, corr.NegLog, corr.WithCSR(net.CSR()))
	rng := rand.New(rand.NewSource(18))
	type shape struct {
		query, workers, budget int
	}
	var reqs []shape
	for i := 0; i < 2; i++ {
		reqs = append(reqs, shape{33, 2000, 30}, shape{33, 200, 60}, shape{5, 2000, 30})
	}
	solvers := []struct {
		name string
		mode Mode
		run  func(*Problem) (Solution, error)
		ref  func(*Problem) Solution
	}{
		{"Hybrid", ObjCorrelation, HybridGreedy, eagerHybrid},
		{"Ratio", ObjCorrelation, RatioGreedy, func(p *Problem) Solution { return eagerGreedy(p, true) }},
		{"OBJ", ObjCorrelation, ObjectiveGreedy, func(p *Problem) Solution { return eagerGreedy(p, false) }},
		{"VarMin", ObjVarianceMin, HybridGreedy, eagerHybrid},
		{"RouteVar", ObjRouteVar, HybridGreedy, eagerHybrid},
		{"Rand", ObjCorrelation,
			func(p *Problem) (Solution, error) { return Random(p, rand.New(rand.NewSource(7))) },
			func(p *Problem) Solution { return referenceRandom(p, 7) }},
	}
	for ri, sh := range reqs {
		query, workers := rng.Perm(n)[:sh.query], rng.Perm(n)[:sh.workers]
		weights := make([]float64, n)
		for _, q := range query {
			weights[q] = rng.Float64()
		}
		for _, theta := range []float64{0.3, 0.5, 0.8, 0.92, 1} {
			for _, sv := range solvers {
				p := &Problem{Query: query, Workers: workers, Costs: net.Costs(), Budget: sh.budget,
					Theta: theta, Sigma: view.Sigma, Mode: sv.mode, Weights: weights, Oracle: oracle}
				got, err := sv.run(p)
				if err != nil {
					t.Fatal(err)
				}
				rp := *p
				rp.Oracle = ref
				if want := sv.ref(&rp); !sameSolution(got, want) {
					t.Fatalf("request %d θ=%v %s: certified %+v != eager %+v", ri, theta, sv.name, got, want)
				}
			}
		}
	}
	if st := oracle.Stats(); st.Deepenings == 0 {
		t.Fatalf("the corpus deepened no row (%+v): it does not exercise the certificate", st)
	}
}
