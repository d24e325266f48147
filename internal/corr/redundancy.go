package corr

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/rtf"
)

// limitSlack widens the NegLog label limit −log θ of a redundancy query, so
// float rounding can only admit extra roads, never drop one. A road above θ
// has a tree-path product P > θ; its search label is the float sum of the
// float −log ρ along the same k-hop path, which differs from −log P by a
// relative error of about (k+1)·2⁻⁵³, and the float product differs from P
// by about k·2⁻⁵³. So its label exceeds −log θ by at most about
// 2(k+1)·2⁻⁵³·(1 + 2·(−log θ)), below 1e-9·(1 − log θ) for any path shorter
// than two million hops. Roads the slack admits carry products the > θ test
// then rejects, and it widens the search by a vanishing label band.
const limitSlack = 1e-9

// Redundancy answers the OCS θ-redundancy question for one oracle: which
// roads correlate with a given road above θ. Above(src) equals
// {j : CorrRow(src)[j] > θ} exactly, but under NegLog it searches only the
// label band −log θ around src — one or two strong edges at the paper's
// θ = 0.92 — instead of the whole network, and it computes, counts and
// caches no row.
//
// A handle owns O(N) scratch and is not safe for concurrent use: make one
// per solve, or per goroutine of a solve, and drop it with the solve. The
// oracle itself stays shared.
type Redundancy struct {
	view  rtf.View
	c     *graph.CSR
	hw    []float64
	theta float64
	limit float64
	s     *graph.Searcher
	prod  []float64 // ρ-products of the last query's settled roads
}

// Redundancy returns a query handle for threshold θ ∈ (0, 1], the range
// ocs.Problem.Validate admits; any other θ panics.
//
// Under NegLog the search stops at label −log θ (plus limitSlack): a road
// whose label is past it has a best-path product below θ. Under Reciprocal
// the label bounds nothing (ρ = 1 edges cost 1 each, so a path of any
// length can keep its product at 1), and every query is a full search.
func (o *Oracle) Redundancy(theta float64) *Redundancy {
	if !(theta > 0 && theta <= 1) {
		panic(fmt.Sprintf("corr: redundancy threshold θ = %v outside (0,1]", theta))
	}
	hw, c := o.flatWeights()
	limit := math.Inf(1)
	if o.tf == NegLog {
		d := -math.Log(theta)
		limit = d + limitSlack*(1+d)
	}
	return &Redundancy{
		view:  o.view,
		c:     c,
		hw:    hw,
		theta: theta,
		limit: limit,
		s:     c.NewSearcher(),
		prod:  make([]float64, c.N()),
	}
}

// Above returns the roads j with corr(src, j) > θ, src itself included when
// θ < 1, in no particular order. The slice is the caller's.
//
// It runs the oracle's row search up to the handle's label limit and
// multiplies ρ along the settled tree in settle order: every settled road
// gets the factors, in the order, of computeRowCSR, so its value is the
// row's bit for bit. Eq. (7) then sets src's neighbours to their edge ρ. A
// neighbour left unsettled has edge weight −log ρ above the limit, so its ρ
// is below θ, like every other unsettled road's product.
func (r *Redundancy) Above(src int) []int32 {
	if src < 0 || src >= r.c.N() {
		panic(fmt.Sprintf("corr: source road %d out of range [0,%d)", src, r.c.N()))
	}
	order := r.s.Limited(src, r.hw, r.limit)
	r.prod[src] = 1
	for _, v := range order[1:] {
		p, e := r.s.Tree(v)
		r.prod[v] = r.prod[p] * r.view.Rho[e]
	}
	lo, hi := r.c.Row(src)
	for k := lo; k < hi; k++ {
		v, e := r.c.At(k)
		r.prod[v] = r.view.Rho[e]
	}
	var above []int32
	for _, v := range order {
		if r.prod[v] > r.theta {
			above = append(above, v)
		}
	}
	return above
}
