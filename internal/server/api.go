// Consolidated v1 API surface (PR 10). Two things live here:
//
//   - RoadSetRequest, the shared base every road-set endpoint body embeds
//     (estimate, query entries, forecast, alert predicates, route), so slot
//     range, road range and credible-level validation — and therefore the
//     envelope errors they produce — are defined once instead of per-handler.
//   - The machine-readable route inventory: apiTable is the single source of
//     truth for endpoint names, paths, methods and deprecation status. It
//     feeds GET /v1/ (clients discover the surface), the per-route metrics
//     label set (metrics.go derives `routes` from it), and the
//     route-inventory test, which asserts the envelope suite covers every
//     entry.
package server

import (
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/tslot"
)

// RoadSetRequest is the shared base of the road-set endpoint bodies: a slot,
// an optional road subset (empty means all roads), an optional credible
// level for intervals (0 means the serving default 0.9), and an optional OCS
// objective name for endpoints that spend probe budget.
type RoadSetRequest struct {
	Slot  int     `json:"slot"`
	Roads []int   `json:"roads,omitempty"`
	Level float64 `json:"level,omitempty"`
	// Objective names the OCS selector ("Hybrid", "VarMin", "RouteVar", ...)
	// for endpoints that trigger a selection; empty defaults per endpoint.
	Objective string `json:"objective,omitempty"`
}

// validate resolves the shared fields against a network of n roads,
// returning the typed slot and the effective credible level. The error
// messages are the single wording every embedding endpoint serves.
func (rs *RoadSetRequest) validate(n int) (tslot.Slot, float64, error) {
	slot := tslot.Slot(rs.Slot)
	if !slot.Valid() {
		return 0, 0, fmt.Errorf("slot %d out of range", rs.Slot)
	}
	level, err := resolveLevel(rs.Level)
	if err != nil {
		return 0, 0, err
	}
	for _, id := range rs.Roads {
		if id < 0 || id >= n {
			return 0, 0, fmt.Errorf("road %d out of range", id)
		}
	}
	return slot, level, nil
}

// roadsOrAll returns the requested subset, or every road id when the request
// named none.
func (rs *RoadSetRequest) roadsOrAll(n int) []int {
	if len(rs.Roads) > 0 {
		return rs.Roads
	}
	roads := make([]int, n)
	for i := range roads {
		roads[i] = i
	}
	return roads
}

// selector resolves the Objective field with a per-endpoint default.
func (rs *RoadSetRequest) selector(def core.Selector) (core.Selector, error) {
	if rs.Objective == "" {
		return def, nil
	}
	return core.ParseSelector(rs.Objective)
}

// endpointInfo is one row of the machine-readable route inventory.
type endpointInfo struct {
	Name       string   `json:"name"`
	Path       string   `json:"path"`
	Methods    []string `json:"methods"`
	Deprecated bool     `json:"deprecated,omitempty"`
}

// apiTable is the closed set of served endpoints. GET /v1/ returns it
// verbatim, metrics.go derives the per-route counter labels from it, and
// TestRouteInventoryCovered asserts the envelope suite exercises every row —
// adding an endpoint without inventory, metrics and an envelope case fails
// the build's tests, not a code review.
var apiTable = []endpointInfo{
	{Name: "index", Path: "/v1/", Methods: []string{http.MethodGet}},
	{Name: "network", Path: "/v1/network", Methods: []string{http.MethodGet}},
	{Name: "workers", Path: "/v1/workers", Methods: []string{http.MethodPost}},
	{Name: "report", Path: "/v1/report", Methods: []string{http.MethodPost}},
	{Name: "select", Path: "/v1/select", Methods: []string{http.MethodPost}},
	{Name: "estimate", Path: "/v1/estimate", Methods: []string{http.MethodPost}},
	{Name: "query", Path: "/v1/query", Methods: []string{http.MethodPost}},
	{Name: "route", Path: "/v1/route", Methods: []string{http.MethodPost}},
	{Name: "forecast", Path: "/v1/forecast", Methods: []string{http.MethodPost}},
	{Name: "subscribe", Path: "/v1/subscribe", Methods: []string{http.MethodGet}},
	{Name: "alerts", Path: "/v1/alerts", Methods: []string{http.MethodGet, http.MethodPost}},
	{Name: "healthz", Path: "/v1/healthz", Methods: []string{http.MethodGet}},
	{Name: "model", Path: "/v1/model", Methods: []string{http.MethodGet, http.MethodPost}},
	{Name: "metrics", Path: "/v1/metrics", Methods: []string{http.MethodGet}},
	{Name: "pprof", Path: "/debug/pprof/", Methods: []string{http.MethodGet}},
}

// routeLabels derives the metrics route-label set from the inventory.
func routeLabels() []string {
	names := make([]string, len(apiTable))
	for i, e := range apiTable {
		names[i] = e.Name
	}
	return names
}

// indexResponse is the GET /v1/ body.
type indexResponse struct {
	Endpoints []endpointInfo `json:"endpoints"`
}

// handleIndex serves the route inventory at exactly /v1/. The "/v1/" mux
// pattern is a subtree match, so unregistered /v1/* paths land here too —
// they get the unified 404 envelope instead of the mux's plain-text default.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/" {
		writeErr(w, r, http.StatusNotFound, "unknown endpoint %s (GET /v1/ lists the surface)", r.URL.Path)
		return
	}
	if r.Method != http.MethodGet {
		writeErr(w, r, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, indexResponse{Endpoints: apiTable})
}
