package server

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// TestStrictRequestContract replays bodies a bare decoder accepts: a report
// that names none of its fields, a batch shape the report route does not
// have, a one-letter typo in the workers body, an unknown estimate field and
// a second JSON value after the body. Each gets the envelope's 400 naming
// the field (or the trailing value), and none of them changes what the
// server holds: the crowd stays registered and no report is stored.
func TestStrictRequestContract(t *testing.T) {
	ts, _, _ := newTestServer(t)
	ok := doReq(t, http.MethodPost, ts.URL+"/v1/workers", `{"workers":[{"road":1},{"road":2}]}`, nil)
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("register workers = %d", ok.StatusCode)
	}
	for _, tc := range []struct{ name, path, body, names string }{
		{"empty report", "/v1/report", `{}`, `"road"`},
		{"report without speed", "/v1/report", `{"road":1,"slot":100}`, `"speed"`},
		{"null report field", "/v1/report", `{"road":1,"slot":null,"speed":40}`, `"slot"`},
		{"report field nulled by a repeated key", "/v1/report", `{"road":1,"slot":100,"speed":40,"speed":null}`, `"speed"`},
		{"batch shape on report", "/v1/report", `{"reports":[{"road":1,"slot":100,"speed":40}]}`, `"reports"`},
		{"workers typo", "/v1/workers", `{"worker":[{"road":1}]}`, `"worker"`},
		{"workers missing", "/v1/workers", `{}`, `"workers"`},
		{"unknown estimate field", "/v1/estimate", `{"slot":100,"roads":[1],"bogus":1}`, `"bogus"`},
		{"second JSON value", "/v1/estimate", `{"slot":100,"roads":[1]} {"slot":101}`, "more than one JSON value"},
		{"unknown nested field", "/v1/query", `{"queries":[{"slot":100,"road":[1]}]}`, `"road"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := doReq(t, http.MethodPost, ts.URL+tc.path, tc.body, nil)
			if resp.StatusCode != http.StatusBadRequest {
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Fatalf("POST %s %s = %d %s, want 400", tc.path, tc.body, resp.StatusCode, b)
			}
			if env := decodeEnvelope(t, resp); !strings.Contains(env.Error.Message, tc.names) {
				t.Errorf("message %q does not name %s", env.Error.Message, tc.names)
			}
		})
	}

	// The refused bodies stored no report and left the crowd registered.
	var est estimateResponse
	decode(t, doReq(t, http.MethodPost, ts.URL+"/v1/estimate", `{"slot":100,"roads":[0,1]}`, nil), &est)
	if est.Observed != 0 {
		t.Errorf("%d observed roads after refused reports, want 0", est.Observed)
	}
	sel := doReq(t, http.MethodPost, ts.URL+"/v1/select", `{"slot":100,"roads":[1,2],"budget":10,"theta":0.9}`, nil)
	sel.Body.Close()
	if sel.StatusCode != http.StatusOK {
		t.Errorf("select after a refused workers body = %d, want 200", sel.StatusCode)
	}
}

// TestFreshServerExportsNoQuerySeries: the query, probe and budget series
// counted the simulated query loop, which no route runs, so a server does
// not export them.
func TestFreshServerExportsNoQuerySeries(t *testing.T) {
	ts, _, _ := newTestServer(t)
	for name := range scrapeMetrics(t, ts.URL) {
		for _, prefix := range []string{"crowdrtse_quer", "crowdrtse_probe_", "crowdrtse_budget_"} {
			if strings.HasPrefix(name, prefix) {
				t.Errorf("/v1/metrics exports %s", name)
			}
		}
	}
}

// routeRequests maps each JSON route to its request type and the fields its
// body must carry: the oracle of FuzzHandlers' contract property.
var routeRequests = map[string]struct {
	typ      reflect.Type
	required []string
}{
	"/v1/workers":  {reflect.TypeOf(workersRequest{}), []string{"workers"}},
	"/v1/report":   {reflect.TypeOf(reportRequest{}), []string{"road", "slot", "speed"}},
	"/v1/select":   {reflect.TypeOf(selectRequest{}), nil},
	"/v1/estimate": {reflect.TypeOf(estimateRequest{}), nil},
	"/v1/query":    {reflect.TypeOf(batchQueryRequest{}), nil},
	"/v1/route":    {reflect.TypeOf(routeRequest{}), nil},
	"/v1/forecast": {reflect.TypeOf(forecastRequest{}), nil},
	"/v1/alerts":   {reflect.TypeOf(alertsPredicateRequest{}), nil},
	"/v1/model":    {reflect.TypeOf(modelActionRequest{}), nil},
}

// jsonNames lists the top-level JSON field names of struct type t, with the
// fields of embedded structs promoted as encoding/json promotes them.
func jsonNames(t reflect.Type) []string {
	var names []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case tag == "-":
		case f.Anonymous && tag == "":
			names = append(names, jsonNames(f.Type)...)
		case tag != "":
			names = append(names, tag)
		default:
			names = append(names, f.Name)
		}
	}
	return names
}

// breaksContract reports why body must not be accepted on route: a
// top-level key no field of the route's request type answers to (matched as
// encoding/json matches names), or a required field absent or null. A body
// that is not a JSON object is judged by the decoder alone ("").
func breaksContract(route, body string) string {
	var fields map[string]json.RawMessage
	if json.Unmarshal([]byte(body), &fields) != nil {
		return ""
	}
	rr := routeRequests[route]
	known := jsonNames(rr.typ)
	for k := range fields {
		match := false
		for _, name := range known {
			match = match || strings.EqualFold(k, name)
		}
		if !match {
			return "unknown field " + k
		}
	}
	for _, name := range rr.required {
		present := false
		for k, v := range fields {
			present = present || strings.EqualFold(k, name) && string(v) != "null"
		}
		if !present {
			return "missing required field " + name
		}
	}
	return ""
}

// TestRouteRequestsCoverJSONRoutes keeps the contract oracle in step with
// the routes FuzzHandlers drives.
func TestRouteRequestsCoverJSONRoutes(t *testing.T) {
	if len(routeRequests) != len(jsonRoutes) {
		t.Fatalf("%d request types for %d JSON routes", len(routeRequests), len(jsonRoutes))
	}
	for _, route := range jsonRoutes {
		if _, ok := routeRequests[route]; !ok {
			t.Errorf("no request type for %s", route)
		}
	}
}
