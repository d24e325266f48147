package modelstore

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/network"
	"repro/internal/rtf"
	"repro/internal/tslot"
)

// ErrGateRefused is wrapped by every gate refusal, so callers can
// errors.Is-match refusals without parsing reasons.
var ErrGateRefused = errors.New("modelstore: gate refused candidate")

// The publication gate's settings.
const (
	// llTolerance is the largest allowed regression of the candidate's mean
	// holdout log-likelihood below the live model's (per observed road): the
	// candidate is refused when liveLL − candLL > llTolerance. Half a unit
	// admits statistical noise while blocking genuinely worse models.
	llTolerance = 0.5
	// minHoldout is the fewest holdout observations that run the likelihood
	// check; with fewer, only the structural validation applies (a fresh
	// deployment has no holdout yet).
	minHoldout = 8
	// maxAbsMu bounds |μ| (km/h). Speeds far outside physical range indicate
	// a corrupted or diverged fit.
	maxAbsMu = 500
)

// HoldoutSample is one slot's held-out sparse observation set (road →
// observed speed), the unit the likelihood gate scores models on.
type HoldoutSample struct {
	Slot   tslot.Slot
	Speeds map[int]float64
}

// GateResult reports what the gate measured and decided.
type GateResult struct {
	Refused      bool    `json:"refused"`
	Reason       string  `json:"reason,omitempty"`
	LLChecked    bool    `json:"ll_checked"`
	Observations int     `json:"observations"`
	CandidateLL  float64 `json:"candidate_ll"`
	LiveLL       float64 `json:"live_ll"`
}

// ValidateModel is the structural half of the gate: the candidate must cover
// exactly the serving network's topology (road count and canonical edge
// list, compared by hash) and every parameter must be finite and in range
// (|μ| ≤ maxAbsMu).
// rtf constructors enforce σ/ρ ranges already; μ finiteness and magnitude
// are checked here because rtf.Model.SetMu deliberately accepts anything.
func ValidateModel(net *network.Network, m *rtf.Model) error {
	if net == nil || m == nil {
		return fmt.Errorf("modelstore: validate: nil network or model")
	}
	if m.N() != net.N() {
		return fmt.Errorf("modelstore: candidate covers %d roads, network has %d", m.N(), net.N())
	}
	if got, want := ModelTopologyHash(m), NetworkTopologyHash(net); got != want {
		return fmt.Errorf("%w: candidate %016x, network %016x", ErrTopologyMismatch, got, want)
	}
	for t := tslot.Slot(0); t < tslot.PerDay; t++ {
		v := m.At(t)
		for i, x := range v.Mu {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > maxAbsMu {
				return fmt.Errorf("modelstore: slot %d road %d has μ=%v (bound %v)", t, i, x, maxAbsMu)
			}
		}
		for i, x := range v.Sigma {
			if !(x > 0) || math.IsInf(x, 0) {
				return fmt.Errorf("modelstore: slot %d road %d has σ=%v", t, i, x)
			}
		}
		for i, x := range v.Rho {
			if !(x > 0) || x > 1 {
				return fmt.Errorf("modelstore: slot %d edge %d has ρ=%v", t, i, x)
			}
		}
	}
	return nil
}

// HoldoutLL scores a model on sparse holdout observations: the mean, per
// observed road, of the Gaussian log-density of the observation under the
// road's (μ, σ) plus the pairwise edge term for every pair of co-observed
// adjacent roads. Including the normalizers (−log σ², −log q) matters — a
// candidate must not be able to game the gate by inflating its variances.
func HoldoutLL(net *network.Network, m *rtf.Model, samples []HoldoutSample) (ll float64, observations int) {
	var total float64
	var count int
	for _, s := range samples {
		if !s.Slot.Valid() || len(s.Speeds) == 0 {
			continue
		}
		v := m.At(s.Slot)
		for road, speed := range s.Speeds {
			if road < 0 || road >= m.N() {
				continue
			}
			si := v.Sigma[road]
			d := speed - v.Mu[road]
			total += -math.Log(si*si) - d*d/(si*si)
			count++
			for _, nb := range net.Neighbors(road) {
				j := int(nb)
				if j <= road { // count each co-observed pair once
					continue
				}
				sj, ok := s.Speeds[j]
				if !ok {
					continue
				}
				muIJ, q := v.EdgeParams(road, j)
				r := (speed - sj) - muIJ
				total += -math.Log(q) - r*r/q
			}
		}
	}
	if count == 0 {
		return 0, 0
	}
	return total / float64(count), count
}

// Gate runs the full publication check of a candidate model against the live
// one: structural validation first, then — given at least minHoldout holdout
// observations — the likelihood-regression check. It never mutates either
// model.
func Gate(net *network.Network, live, cand *rtf.Model, holdout []HoldoutSample) GateResult {
	res := GateResult{}
	if err := ValidateModel(net, cand); err != nil {
		res.Refused = true
		res.Reason = err.Error()
		return res
	}
	candLL, n := HoldoutLL(net, cand, holdout)
	res.Observations = n
	if live == nil || n < minHoldout {
		return res // structural gate only
	}
	liveLL, _ := HoldoutLL(net, live, holdout)
	res.LLChecked = true
	res.CandidateLL = candLL
	res.LiveLL = liveLL
	if liveLL-candLL > llTolerance {
		res.Refused = true
		res.Reason = fmt.Sprintf("holdout log-likelihood regressed %.4f > tolerance %.4f (live %.4f, candidate %.4f over %d observations)",
			liveLL-candLL, llTolerance, liveLL, candLL, n)
	}
	return res
}
