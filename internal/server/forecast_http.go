// POST /v1/forecast: the forward-looking query type the per-slot pipeline
// cannot serve. The request is answered read-only by core.Batcher.Forecast
// over the Batcher's cross-slot filter: a snapshot of the state is synced to
// the requested base slot, the slot's current crowd aggregates — which the
// filter fuses only once a report walks it past the slot, and which read as
// none after half a day without reports — are fused into the snapshot only,
// and the predict step is iterated k times — one step per horizon slot,
// mean reverting toward the periodicity prior, variance honestly widening
// (clamped monotone non-decreasing in k). The shared filter never moves:
// only /v1/report walks it, so a forecast can neither decay the warm-start
// state by asking about a distant base slot nor double-count a slot's
// evidence when a dashboard polls.
//
// The route is admission-gated like the other work routes, with one twist: a
// forecast is capped at interactive class on the QoS ladder (the planning
// policy of its apiTable row).
package server

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/stattest"
)

// defaultForecastHorizon is used when the request omits the horizon.
const defaultForecastHorizon = 3

// forecastRequest is the shared road-set base (slot, roads, level) plus the
// fan depth.
type forecastRequest struct {
	RoadSetRequest
	// Horizon is the number of slots to forecast ahead (1..12, default 3).
	Horizon int `json:"horizon"`
}

// forecastStepJSON is one horizon step of the fan: per-road mean, SD and
// central credible interval at the requested level. Interval width grows
// with the step — the fan's variance is clamped monotone in k.
type forecastStepJSON struct {
	Step      int                     `json:"step"`
	Slot      int                     `json:"slot"`
	Speeds    map[string]float64      `json:"speeds"`
	SD        map[string]float64      `json:"sd"`
	Intervals map[string]intervalJSON `json:"intervals"`
}

type forecastResponse struct {
	Slot     int                `json:"slot"`
	Horizon  int                `json:"horizon"`
	Observed int                `json:"observed_roads"`
	Level    float64            `json:"level"`
	Steps    []forecastStepJSON `json:"steps"`
	// Degraded: no crowd reports backed the base state — the fan starts from
	// the filter's carried-over state (or the prior) instead of fresh signal.
	Degraded bool `json:"degraded"`
	// Quality labels the QoS class the request was admitted at (set when
	// admission control is enabled); forecasts are clamped to interactive.
	Quality string `json:"quality,omitempty"`
}

func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	var req forecastRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	out, status, err := s.forecastOne(req)
	if err != nil {
		writeErr(w, r, status, "%v", err)
		return
	}
	if d := admissionFrom(r.Context()); d != nil {
		out.Quality = d.Class.String()
	}
	writeJSON(w, http.StatusOK, out)
}

// forecastOne validates and answers one forecast request against the live
// filter. On error the returned status is the HTTP code to report.
func (s *Server) forecastOne(req forecastRequest) (*forecastResponse, int, error) {
	n := s.sys.Network().N()
	slot, level, err := req.validate(n)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	k := req.Horizon
	if k == 0 {
		k = defaultForecastHorizon
	}
	if k < 1 || k > core.MaxHorizon {
		return nil, http.StatusBadRequest,
			fmt.Errorf("horizon %d out of range (1..%d slots)", req.Horizon, core.MaxHorizon)
	}
	roads := req.roadsOrAll(n)

	// Slot, horizon and roads were validated above, so any error here is
	// internal.
	fan, observed, err := s.batcher.Forecast(slot, k)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}

	out := &forecastResponse{
		Slot:     req.Slot,
		Horizon:  k,
		Observed: observed,
		Level:    level,
		Steps:    make([]forecastStepJSON, 0, len(fan)),
		Degraded: observed == 0,
	}
	for _, st := range fan {
		sj := forecastStepJSON{
			Step:      st.Step,
			Slot:      int(st.Slot),
			Speeds:    make(map[string]float64, len(roads)),
			SD:        make(map[string]float64, len(roads)),
			Intervals: make(map[string]intervalJSON, len(roads)),
		}
		for _, id := range roads {
			key := strconv.Itoa(id)
			sj.Speeds[key] = st.Speeds[id]
			sj.SD[key] = st.SD[id]
			lo, hi := stattest.Interval(st.Speeds[id], st.SD[id], level)
			sj.Intervals[key] = intervalJSON{Lo: lo, Hi: hi}
		}
		out.Steps = append(out.Steps, sj)
	}
	return out, http.StatusOK, nil
}
