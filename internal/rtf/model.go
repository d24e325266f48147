// Package rtf implements the Realtime Traffic-speed Field (§IV): a series of
// Gaussian Markov Random Fields G^t, one per 5-minute slot, sharing the
// traffic network's topology. Each slot carries three parameter sets:
//
//	M = {μ_i^t}  expected speed of road i in slot t (periodic pattern)
//	Ω = {σ_i^t}  std-dev of the speed — the *intensity* of periodicity
//	             (small σ ⇒ strong periodicity, Remark 1)
//	P = {ρ_ij^t} correlation of adjacent roads — the *strength* of
//	             correlation, acting as edge weights, ρ ∈ [0,1]
//
// The model is fitted offline from historical records (Alg. 1) and then
// consumed online by OCS (periodicity-weighted correlation) and GSP (speed
// propagation).
package rtf

import (
	"fmt"
	"math"

	"repro/internal/network"
	"repro/internal/tslot"
)

// Parameter bounds. ρ is clamped inside (0, 1] so that path-correlation
// transforms (1/ρ, −log ρ) stay finite; σ is floored to keep every variance
// positive (see DESIGN.md "Paper ambiguities").
const (
	RhoMin   = 0.05
	RhoMax   = 0.999
	SigmaMin = 0.25
	SigmaMax = 60.0
)

// Model is a fitted RTF over a fixed network. Create with New and fill via
// FitMoments / RefineCCD, or decode a saved snapshot with package modelstore.
type Model struct {
	n     int      // number of roads
	edges [][2]int // sorted edge list, u < v
	eidx  map[int64]int

	// Parameters, indexed [slot][road] and [slot][edge].
	mu    [][]float64
	sigma [][]float64
	rho   [][]float64
}

// New allocates an unfitted model for the network: μ=0, σ=SigmaMin, ρ=RhoMin
// for every slot.
func New(net *network.Network) *Model {
	edges := net.Graph().EdgeList()
	m := &Model{
		n:     net.N(),
		edges: edges,
		eidx:  make(map[int64]int, len(edges)),
		mu:    make([][]float64, tslot.PerDay),
		sigma: make([][]float64, tslot.PerDay),
		rho:   make([][]float64, tslot.PerDay),
	}
	for i, e := range edges {
		m.eidx[packEdge(e[0], e[1])] = i
	}
	for t := 0; t < tslot.PerDay; t++ {
		m.mu[t] = make([]float64, m.n)
		m.sigma[t] = make([]float64, m.n)
		m.rho[t] = make([]float64, len(edges))
		for i := range m.sigma[t] {
			m.sigma[t][i] = SigmaMin
		}
		for i := range m.rho[t] {
			m.rho[t][i] = RhoMin
		}
	}
	return m
}

func packEdge(u, v int) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)<<32 | int64(v)
}

// N returns the number of roads the model covers.
func (m *Model) N() int { return m.n }

// Edges returns the model's edge list (u < v, ascending). The slice is
// shared and must not be modified.
func (m *Model) Edges() [][2]int { return m.edges }

// EdgeIndex returns the index of edge {u, v} in Edges, or -1 if the roads
// are not adjacent.
func (m *Model) EdgeIndex(u, v int) int {
	if i, ok := m.eidx[packEdge(u, v)]; ok {
		return i
	}
	return -1
}

// Mu returns μ_i^t.
func (m *Model) Mu(t tslot.Slot, i int) float64 { return m.mu[t][i] }

// Sigma returns σ_i^t.
func (m *Model) Sigma(t tslot.Slot, i int) float64 { return m.sigma[t][i] }

// Rho returns ρ_ij^t for adjacent roads, or 0 if {i, j} is not an edge.
func (m *Model) Rho(t tslot.Slot, i, j int) float64 {
	e := m.EdgeIndex(i, j)
	if e < 0 {
		return 0
	}
	return m.rho[t][e]
}

// SetMu, SetSigma and SetRho overwrite single parameters, clamping σ and ρ
// to their legal ranges. They exist for tests and synthetic scenarios; the
// fitting routines use them internally.
func (m *Model) SetMu(t tslot.Slot, i int, v float64) { m.mu[t][i] = v }

// SetSigma sets σ_i^t, clamped to [SigmaMin, SigmaMax].
func (m *Model) SetSigma(t tslot.Slot, i int, v float64) {
	m.sigma[t][i] = clamp(v, SigmaMin, SigmaMax)
}

// SetRho sets ρ_ij^t, clamped to [RhoMin, RhoMax]. It panics if {i, j} is
// not an edge of the network.
func (m *Model) SetRho(t tslot.Slot, i, j int, v float64) {
	e := m.EdgeIndex(i, j)
	if e < 0 {
		panic(fmt.Sprintf("rtf: SetRho on non-edge (%d,%d)", i, j))
	}
	m.rho[t][e] = clamp(v, RhoMin, RhoMax)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// View is a read-only snapshot of one slot's parameters, the unit consumed
// by OCS and GSP. Mu and Sigma are indexed by road; Rho by edge index.
type View struct {
	Slot  tslot.Slot
	Mu    []float64
	Sigma []float64
	Rho   []float64
	model *Model
}

// At returns the slot view for t. The returned slices alias the model.
func (m *Model) At(t tslot.Slot) View {
	if !t.Valid() {
		panic(fmt.Sprintf("rtf: invalid slot %d", t))
	}
	return View{Slot: t, Mu: m.mu[t], Sigma: m.sigma[t], Rho: m.rho[t], model: m}
}

// ApproxBytes reports the parameter-tensor footprint, counting each distinct
// backing array once: a phase-aliased metro model (speedgen.MetroModel)
// reports its true Phases×(2N+M) size, a dense fitted model the full
// 288×(2N+M) one. Topology (edge list, index) is excluded.
func (m *Model) ApproxBytes() int64 {
	seen := make(map[*float64]bool, 3*tslot.PerDay)
	var total int64
	count := func(rows [][]float64) {
		for _, row := range rows {
			if len(row) == 0 {
				continue
			}
			if p := &row[0]; !seen[p] {
				seen[p] = true
				total += int64(len(row)) * 8
			}
		}
	}
	count(m.mu)
	count(m.sigma)
	count(m.rho)
	return total
}

// RhoEdge returns ρ for adjacent roads (0 for non-edges).
func (v View) RhoEdge(i, j int) float64 {
	e := v.model.EdgeIndex(i, j)
	if e < 0 {
		return 0
	}
	return v.Rho[e]
}

// EdgeParams returns the derived pairwise Gaussian parameters of Eq. (2) for
// the adjacent pair (i, j): μ_ij = μ_i − μ_j and
// σ_ij² = σ_i² + σ_j² − 2ρ_ij·σ_i·σ_j, floored at a small ε for stability.
func (v View) EdgeParams(i, j int) (muIJ, sigmaIJ2 float64) {
	rho := v.RhoEdge(i, j)
	muIJ = v.Mu[i] - v.Mu[j]
	si, sj := v.Sigma[i], v.Sigma[j]
	sigmaIJ2 = si*si + sj*sj - 2*rho*si*sj
	const eps = 1e-6
	if sigmaIJ2 < eps {
		sigmaIJ2 = eps
	}
	return muIJ, sigmaIJ2
}

// Clone returns a deep copy of the parameter tensors. The topology (edge
// list and index) is immutable and therefore shared. Clone is the first step
// of a background refit: the live model keeps serving while the copy is
// mutated, validated and finally hot-swapped in.
func (m *Model) Clone() *Model {
	c := &Model{
		n:     m.n,
		edges: m.edges,
		eidx:  m.eidx,
		mu:    make([][]float64, len(m.mu)),
		sigma: make([][]float64, len(m.sigma)),
		rho:   make([][]float64, len(m.rho)),
	}
	for t := range m.mu {
		c.mu[t] = append([]float64(nil), m.mu[t]...)
		c.sigma[t] = append([]float64(nil), m.sigma[t]...)
		c.rho[t] = append([]float64(nil), m.rho[t]...)
	}
	return c
}

// FromParams reconstructs a model from raw parameter tensors — the
// constructor the snapshot decoder (package modelstore) uses. It takes
// ownership of the slices and validates shape and value ranges: every slot
// must cover n roads and len(edges) edges, every edge must be u < v, in
// range and listed once, σ must be positive and finite, ρ inside (0, 1],
// and μ finite.
func FromParams(n int, edges [][2]int, mu, sigma, rho [][]float64) (*Model, error) {
	if n < 0 {
		return nil, fmt.Errorf("rtf: negative road count %d", n)
	}
	if len(mu) != tslot.PerDay || len(sigma) != tslot.PerDay || len(rho) != tslot.PerDay {
		return nil, fmt.Errorf("rtf: model has %d slots, want %d", len(mu), tslot.PerDay)
	}
	m := &Model{n: n, edges: edges, eidx: make(map[int64]int, len(edges)),
		mu: mu, sigma: sigma, rho: rho}
	for i, e := range edges {
		if e[0] < 0 || e[1] >= n || e[0] >= e[1] {
			return nil, fmt.Errorf("rtf: bad edge %v", e)
		}
		if _, dup := m.eidx[packEdge(e[0], e[1])]; dup {
			return nil, fmt.Errorf("rtf: duplicate edge %v", e)
		}
		m.eidx[packEdge(e[0], e[1])] = i
	}
	for t := 0; t < tslot.PerDay; t++ {
		if len(mu[t]) != n || len(sigma[t]) != n || len(rho[t]) != len(edges) {
			return nil, fmt.Errorf("rtf: slot %d has inconsistent lengths", t)
		}
		for i, v := range mu[t] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("rtf: slot %d road %d has μ=%v", t, i, v)
			}
		}
		for i, s := range sigma[t] {
			if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
				return nil, fmt.Errorf("rtf: slot %d road %d has σ=%v", t, i, s)
			}
		}
		for i, r := range rho[t] {
			if r <= 0 || r > 1 || math.IsNaN(r) {
				return nil, fmt.Errorf("rtf: slot %d edge %d has ρ=%v", t, i, r)
			}
		}
	}
	return m, nil
}
