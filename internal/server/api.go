// Consolidated v1 API surface (PR 10). Two things live here:
//
//   - RoadSetRequest, the shared base every road-set endpoint body embeds
//     (estimate, query entries, forecast, alert predicates, route), so slot
//     range, road range and credible-level validation — and therefore the
//     envelope errors they produce — are defined once instead of per-handler.
//   - apiTable, the one declaration of each route: its name, path, methods
//     and deprecation status (what GET /v1/ lists), its admission policy and
//     its handler. Handler mounts every row through one wrapper, which checks
//     the method, then admits the request, then calls the handler, so a
//     handler only decodes, validates, calls the Batcher and encodes. The
//     table also gives the per-route metrics label set (routes) and the
//     route-inventory test, which asserts the envelope suite covers every
//     row.
package server

import (
	"fmt"
	"net/http"
	"slices"
	"strings"

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

// endpointInfo is one row of the route table: the exported fields are what
// GET /v1/ lists, admit and handle how the row is served.
type endpointInfo struct {
	Name       string   `json:"name"`
	Path       string   `json:"path"`
	Methods    []string `json:"methods"`
	Deprecated bool     `json:"deprecated,omitempty"`
	// admit is the row's admission policy under QoS (qos_http.go).
	admit admission
	// handle serves a request the row's method check and admission passed;
	// nil mounts net/http/pprof's own handlers instead (EnablePprof).
	handle func(*Server, http.ResponseWriter, *http.Request)
}

// apiTable is the closed set of served endpoints. GET /v1/ returns it
// verbatim, Handler mounts every row, routes (metrics.go) takes its labels
// from it, and TestRouteInventoryCovered asserts the envelope suite
// exercises every row — adding an endpoint without inventory, metrics and
// an envelope case fails the build's tests, not a code review. init fills
// it because the index row's handler lists the table.
var apiTable []endpointInfo

func init() {
	get, post := []string{http.MethodGet}, []string{http.MethodPost}
	getOrPost := []string{http.MethodGet, http.MethodPost}
	apiTable = []endpointInfo{
		{Name: "index", Path: "/v1/", Methods: get, handle: (*Server).handleIndex},
		{Name: "network", Path: "/v1/network", Methods: get, handle: (*Server).handleNetwork},
		{Name: "workers", Path: "/v1/workers", Methods: post, handle: (*Server).handleWorkers},
		{Name: "report", Path: "/v1/report", Methods: post, handle: (*Server).handleReport},
		{Name: "select", Path: "/v1/select", Methods: post, admit: oneToken, handle: (*Server).handleSelect},
		{Name: "estimate", Path: "/v1/estimate", Methods: post, admit: oneToken, handle: (*Server).handleEstimate},
		{Name: "query", Path: "/v1/query", Methods: post, admit: deferred, handle: (*Server).handleQuery},
		{Name: "route", Path: "/v1/route", Methods: post, admit: deferred, handle: (*Server).handleRoute},
		{Name: "forecast", Path: "/v1/forecast", Methods: post, admit: planning, handle: (*Server).handleForecast},
		{Name: "subscribe", Path: "/v1/subscribe", Methods: get, admit: oneToken, handle: (*Server).handleSubscribe},
		{Name: "alerts", Path: "/v1/alerts", Methods: getOrPost, admit: oneToken, handle: (*Server).handleAlerts},
		{Name: "healthz", Path: "/v1/healthz", Methods: get, handle: (*Server).handleHealthz},
		{Name: "model", Path: "/v1/model", Methods: getOrPost, handle: (*Server).handleModel},
		{Name: "metrics", Path: "/v1/metrics", Methods: get, handle: (*Server).handleMetrics},
		{Name: "pprof", Path: "/debug/pprof/", Methods: get},
	}
	for _, e := range apiTable {
		routes = append(routes, e.Name)
	}
}

// Handler mounts every apiTable row behind the hardening middleware (panic
// recovery → body limit → request timeout).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, e := range apiTable {
		switch {
		case e.handle != nil:
			mux.Handle(e.Path, s.serve(e))
		case s.EnablePprof:
			mountPprof(mux)
		}
	}
	return s.withObs(s.withRecovery(s.withBodyLimit(s.withTimeout(mux))))
}

// serve wraps one row's handler. A path the row does not name — only the
// subtree row /v1/ receives one — is unknown whatever the method. A method
// the row does not list gets the 405 envelope before admission, so it costs
// no token. Then the row's admission policy runs, and the handler serves
// what it admits.
func (s *Server) serve(e endpointInfo) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != e.Path {
			writeErr(w, r, http.StatusNotFound, "unknown endpoint %s (GET /v1/ lists the surface)", r.URL.Path)
			return
		}
		if !slices.Contains(e.Methods, r.Method) {
			writeErr(w, r, http.StatusMethodNotAllowed, "%s only", strings.Join(e.Methods, " or "))
			return
		}
		if r, ok := s.admit(w, r, e.admit); ok {
			e.handle(s, w, r)
		}
	})
}

// indexResponse is the GET /v1/ body.
type indexResponse struct {
	Endpoints []endpointInfo `json:"endpoints"`
}

// handleIndex serves the route inventory.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, indexResponse{Endpoints: apiTable})
}
