package corr

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rtf"
)

// redundancyThetas spans loose to strict thresholds around the paper's 0.92.
var redundancyThetas = []float64{0.3, 0.5, 0.8, 0.92, 0.99, 1}

// rowAbove is the full-row answer a redundancy query must match:
// {j : CorrRow(src)[j] > θ}, sorted.
func rowAbove(o *Oracle, src int, theta float64) []int32 {
	var want []int32
	for j, c := range o.CorrRow(src) {
		if c > theta {
			want = append(want, int32(j))
		}
	}
	return want
}

// sortedAbove runs one query and sorts its answer.
func sortedAbove(r *Redundancy, src int) []int32 {
	got := r.Above(src)
	slices.Sort(got)
	return got
}

// checkRedundancy asserts, for every source and every θ, that one handle per
// θ answers exactly the full row's set.
func checkRedundancy(t *testing.T, name string, o *Oracle, n int) {
	t.Helper()
	for _, theta := range redundancyThetas {
		r := o.Redundancy(theta)
		for src := 0; src < n; src++ {
			if got, want := sortedAbove(r, src), rowAbove(o, src, theta); !slices.Equal(got, want) {
				t.Fatalf("%s θ=%v src %d: query %v, row %v", name, theta, src, got, want)
			}
		}
	}
}

// TestRedundancyMatchesRow checks the label-limited query against the full
// row on a fitted view: every source, both transforms, six thresholds.
func TestRedundancyMatchesRow(t *testing.T) {
	net, view := seededOracleView(70, 21)
	for _, tf := range []Transform{NegLog, Reciprocal} {
		checkRedundancy(t, tf.String(), NewOracle(net.Graph(), view, tf), net.N())
	}
}

// handView builds an oracle over g whose edge ρs (EdgeList order) are given
// directly, so they may reach 1, which the fitted model's clamp forbids.
func handView(g *graph.Graph, rho func(e int, u, v int) float64, tf Transform) *Oracle {
	edges := g.EdgeList()
	rhos := make([]float64, len(edges))
	for e, uv := range edges {
		rhos[e] = rho(e, uv[0], uv[1])
	}
	return NewOracle(g, rtf.View{Rho: rhos}, tf)
}

// TestRedundancyZeroWeightTies uses ρ = 1 edges, which cost 0 under NegLog:
// runs of them put many roads on exactly the label of a ρ = θ edge, the
// limit's own value, and let products of two 0.96 edges land just above
// 0.92.
func TestRedundancyZeroWeightTies(t *testing.T) {
	g := graph.Grid(5, 6)
	palette := []float64{1, 0.92, 1, 0.96, 0.5, 1, 0.99, 0.92}
	for _, tf := range []Transform{NegLog, Reciprocal} {
		o := handView(g, func(e, _, _ int) float64 { return palette[e%len(palette)] }, tf)
		checkRedundancy(t, tf.String(), o, g.N())
	}
}

// TestRedundancyTwoComponents checks that roads of the other component,
// whose row value is 0, never appear, and that the query stays inside its
// own component.
func TestRedundancyTwoComponents(t *testing.T) {
	g := graph.New(12)
	for _, uv := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4}, {6, 7}, {7, 8}, {8, 9}, {9, 10}, {10, 11}, {11, 6}} {
		if err := g.AddEdge(uv[0], uv[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, tf := range []Transform{NegLog, Reciprocal} {
		o := handView(g, func(e, _, _ int) float64 { return []float64{0.97, 1, 0.93, 0.6}[e%4] }, tf)
		checkRedundancy(t, tf.String(), o, g.N())
	}
}

// TestRedundancyHandleReuse runs a long random sequence of queries through
// one handle per θ and compares each answer with a fresh handle's: a reset
// that missed a label, a tree edge or a settled flag of an earlier query
// would change a later answer.
func TestRedundancyHandleReuse(t *testing.T) {
	net, view := seededOracleView(300, 5)
	rng := rand.New(rand.NewSource(5))
	for _, tf := range []Transform{NegLog, Reciprocal} {
		o := NewOracle(net.Graph(), view, tf)
		for _, theta := range []float64{0.3, 0.8, 0.92} {
			reused := o.Redundancy(theta)
			for i := 0; i < 400; i++ {
				src := rng.Intn(net.N())
				got, want := sortedAbove(reused, src), sortedAbove(o.Redundancy(theta), src)
				if !slices.Equal(got, want) {
					t.Fatalf("%v θ=%v query %d (src %d): reused handle %v, fresh handle %v", tf, theta, i, src, got, want)
				}
			}
		}
	}
}

// TestRedundancyRejectsTheta checks the (0, 1] domain.
func TestRedundancyRejectsTheta(t *testing.T) {
	o := chainOracle(t, []float64{0.5}, NegLog)
	for _, theta := range []float64{0, -0.5, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("θ = %v did not panic", theta)
				}
			}()
			o.Redundancy(theta)
		}()
	}
}
