// POST /v1/route — the route-level ETA endpoint (PR 10): plan an
// origin→destination path over the uncertainty-carrying tiered speed field
// and integrate the per-road posterior along it into an ETA distribution.
//
//	{"slot":102,"src":3,"dst":41,"horizon":3,"level":0.9}
//
// The departure slot's field is served at the admitted QoS tier through the
// Batcher (concurrent routes and point queries for the slot coalesce into
// one propagation); slots the trip crosses past the departure slot are
// priced from the temporal filter's forecast fan, so each segment carries
// provenance "observed"/"fused"/"prior"/"forecast" and the ETA's SD honestly
// widens with trip length. The response is the distribution: mean minutes,
// SD, a central credible interval at the requested level, and per-segment
// breakdown.
//
// Cost-aware admission: a k-segment route reads the field at k roads, so it
// is charged k tokens against the tenant bucket — the same deferred
// all-or-nothing charge as a k-entry /v1/query batch.
//
// With "budget" > 0 the request additionally runs route-aware OCS
// (core.RouteVar): each road's weight is its squared travel-time sensitivity
// on the planned path, the probe budget is charged against the tenant's
// quota exactly like /v1/select, and the selection is returned so the caller
// can dispatch workers where probing most tightens this ETA.
package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/stattest"
	"repro/internal/tslot"
)

// routeRequest is the POST /v1/route body. The embedded base supplies slot,
// level and the OCS objective name (default RouteVar); Roads is ignored —
// the road set is the planned path itself.
type routeRequest struct {
	RoadSetRequest
	Src int `json:"src"`
	Dst int `json:"dst"`
	// DepartMinute is the minute-of-day of departure; 0 (or omitted) means
	// the start of the requested slot.
	DepartMinute float64 `json:"depart_minute,omitempty"`
	// Horizon is how many slots past the departure slot the trip may cross;
	// 0 means the forecast default (3), capped at maxForecastHorizon.
	Horizon int `json:"horizon,omitempty"`
	// Budget, when positive, triggers the route-aware OCS selection.
	Budget int     `json:"budget,omitempty"`
	Theta  float64 `json:"theta,omitempty"` // OCS redundancy threshold, default 0.92
	Seed   int64   `json:"seed,omitempty"`
}

// defaultRouteTheta is the OCS θ used when a budgeted route names none.
const defaultRouteTheta = 0.92

type routeSegmentJSON struct {
	Road        int     `json:"road"`
	Slot        int     `json:"slot"`
	EnterMinute float64 `json:"enter_minute"`
	Speed       float64 `json:"speed"`
	SpeedSD     float64 `json:"speed_sd"`
	Minutes     float64 `json:"minutes"`
	Provenance  string  `json:"provenance"`
}

// routeProbeJSON is the route-aware OCS selection of a budgeted request.
type routeProbeJSON struct {
	Objective string  `json:"objective"`
	Roads     []int   `json:"roads"`
	Value     float64 `json:"value"` // projected ETA-variance reduction, min²
	Cost      int     `json:"cost"`
}

type routeResponse struct {
	Slot         int     `json:"slot"`
	Src          int     `json:"src"`
	Dst          int     `json:"dst"`
	DepartMinute float64 `json:"depart_minute"`
	Roads        []int   `json:"roads"` // traversal order, src first
	// The ETA distribution: mean minutes, SD, and the central credible
	// interval at Level.
	ETAMinutes float64      `json:"eta_minutes"`
	ETASD      float64      `json:"eta_sd"`
	Level      float64      `json:"level"`
	Interval   intervalJSON `json:"interval"`
	// Segments breaks the distribution down per traversed road (the first
	// road is free — the vehicle is already on it).
	Segments     []routeSegmentJSON `json:"segments"`
	SlotsCrossed int                `json:"slots_crossed"`
	ForecastUsed bool               `json:"forecast_used"`
	// Quality/VarianceInflation label the departure slot's serving tier when
	// admission control is enabled, as on /v1/estimate.
	Quality           string  `json:"quality,omitempty"`
	VarianceInflation float64 `json:"variance_inflation,omitempty"`
	// Probes is the RouteVar OCS selection (budget > 0 only).
	Probes *routeProbeJSON `json:"probes,omitempty"`
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, r, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req routeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, r, http.StatusBadRequest, "decode: %v", err)
		return
	}
	n := s.sys.Network().N()
	slot, level, err := req.validate(n)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Src < 0 || req.Src >= n || req.Dst < 0 || req.Dst >= n {
		writeErr(w, r, http.StatusBadRequest, "endpoints (%d,%d) out of range [0,%d)", req.Src, req.Dst, n)
		return
	}
	horizon := req.Horizon
	if horizon == 0 {
		horizon = defaultForecastHorizon
	}
	if horizon < 1 || horizon > maxForecastHorizon {
		writeErr(w, r, http.StatusBadRequest, "horizon %d outside [1, %d]", req.Horizon, maxForecastHorizon)
		return
	}
	if req.DepartMinute < 0 || req.DepartMinute >= 24*60 {
		writeErr(w, r, http.StatusBadRequest, "depart_minute %v outside the day", req.DepartMinute)
		return
	}
	sel, err := req.selector(core.RouteVar)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "%v", err)
		return
	}

	depart := req.DepartMinute
	if depart == 0 {
		depart = float64(slot.StartMinute())
	}
	tier, ai := admittedTier(r.Context())
	res, err := s.batcher.RouteETA(r.Context(), core.RouteETARequest{
		Slot: slot, Src: req.Src, Dst: req.Dst, DepartMinute: depart,
		Horizon: horizon, Observed: s.collector.Observations(slot), Tier: tier,
	})
	if err != nil {
		status := http.StatusInternalServerError
		// Planning failures are the client's problem (no path, or a trip
		// longer than the served horizon); only pipeline failures are 500s.
		if errors.Is(err, router.ErrHorizonExceeded) || strings.HasPrefix(err.Error(), "router:") {
			status = http.StatusBadRequest
		}
		writeErr(w, r, status, "%v", err)
		return
	}
	// Cost-aware admission, deferred until the path length is known: a
	// k-segment route is charged k tokens, all or nothing, like a k-entry
	// batch query.
	if !s.admitBatch(w, r, ai, len(res.ETA.Segments)) {
		return
	}
	if ai != nil && s.qosCtl != nil {
		s.qosCtl.Observe(ai.Tenant, ai.Decision.Tier, res.Tier)
	}

	out := &routeResponse{
		Slot:         int(slot),
		Src:          req.Src,
		Dst:          req.Dst,
		DepartMinute: depart,
		Roads:        res.ETA.Route.Roads,
		ETAMinutes:   res.ETA.Minutes,
		ETASD:        res.ETA.SD,
		Level:        level,
		Segments:     make([]routeSegmentJSON, 0, len(res.ETA.Segments)),
		SlotsCrossed: res.ETA.SlotsCrossed,
		ForecastUsed: res.ForecastUsed,
	}
	out.Interval.Lo, out.Interval.Hi = stattest.Interval(res.ETA.Minutes, res.ETA.SD, level)
	for _, seg := range res.ETA.Segments {
		out.Segments = append(out.Segments, routeSegmentJSON{
			Road: seg.Road, Slot: int(seg.Slot), EnterMinute: seg.EnterMinute,
			Speed: seg.Speed, SpeedSD: seg.SpeedSD, Minutes: seg.Minutes,
			Provenance: seg.Provenance,
		})
	}
	if ai != nil {
		out.Quality = res.Tier.String()
		out.VarianceInflation = res.VarianceInflation
	}

	if req.Budget > 0 {
		if out.Probes = s.routeProbes(w, r, &req, slot, sel, res.ETA); out.Probes == nil {
			return
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// routeProbes runs the route-aware OCS selection for a budgeted route: the
// planned path's sensitivity weights drive core.RouteVar through the charged
// select path (quota charge, refund on failure). On nil the error envelope
// has been written.
func (s *Server) routeProbes(w http.ResponseWriter, r *http.Request, req *routeRequest, slot tslot.Slot, sel core.Selector, eta router.ETA) *routeProbeJSON {
	theta := req.Theta
	if theta == 0 {
		theta = defaultRouteTheta
	}
	query := make([]int, 0, len(eta.Segments))
	seen := make(map[int]bool, len(eta.Segments))
	for _, seg := range eta.Segments {
		if !seen[seg.Road] {
			seen[seg.Road] = true
			query = append(query, seg.Road)
		}
	}
	sol, ok := s.selectCharged(w, r, core.SelectRequest{
		Slot: slot, Roads: query,
		Budget: req.Budget, Theta: theta, Selector: sel, Seed: req.Seed,
		Weights: s.batcher.RouteWeights(eta),
	})
	if !ok {
		return nil
	}
	return &routeProbeJSON{
		Objective: sel.String(), Roads: sol.Roads, Value: sol.Value, Cost: sol.Cost,
	}
}
