package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"
)

// decodeEnvelope parses and sanity-checks the unified error envelope.
func decodeEnvelope(tb testing.TB, resp *http.Response) errorEnvelope {
	tb.Helper()
	defer resp.Body.Close()
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		tb.Fatalf("error body is not the envelope: %v", err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		tb.Fatalf("envelope missing code/message: %+v", env)
	}
	if env.Error.RequestID == "" {
		tb.Fatalf("envelope missing request_id: %+v", env)
	}
	if got := resp.Header.Get("X-Request-ID"); got != env.Error.RequestID {
		tb.Fatalf("X-Request-ID header %q != envelope request_id %q", got, env.Error.RequestID)
	}
	return env
}

// envelopeCase is one route's error-path probe: fire the request, expect the
// status and code, and demand the envelope shape.
type envelopeCase struct {
	route  string // must match an entry of the routes inventory
	method string
	path   string
	body   string // non-empty ⇒ JSON POST body
	status int
	code   string
}

// envelopeCases is the golden error-path matrix. TestRouteInventoryCovered
// fails when a route in the `routes` var has no case here, so adding a mux
// route without envelope-on-error coverage breaks CI.
var envelopeCases = []envelopeCase{
	{route: "network", method: http.MethodPost, path: "/v1/network", body: `{}`, status: http.StatusMethodNotAllowed, code: "method_not_allowed"},
	{route: "workers", method: http.MethodGet, path: "/v1/workers", status: http.StatusMethodNotAllowed, code: "method_not_allowed"},
	{route: "workers", method: http.MethodPost, path: "/v1/workers", body: `{"workers":[{"road":99999}]}`, status: http.StatusBadRequest, code: "bad_request"},
	{route: "report", method: http.MethodPost, path: "/v1/report", body: `{not json`, status: http.StatusBadRequest, code: "bad_request"},
	{route: "select", method: http.MethodPost, path: "/v1/select", body: `{"slot":102,"roads":[1],"budget":5,"theta":0.9}`, status: http.StatusConflict, code: "conflict"},
	{route: "select", method: http.MethodPost, path: "/v1/select", body: `{"slot":102,"selector":"Bogus"}`, status: http.StatusBadRequest, code: "bad_request"},
	{route: "estimate", method: http.MethodDelete, path: "/v1/estimate", status: http.StatusMethodNotAllowed, code: "method_not_allowed"},
	{route: "estimate", method: http.MethodGet, path: "/v1/estimate?slot=10", status: http.StatusMethodNotAllowed, code: "method_not_allowed"},
	{route: "estimate", method: http.MethodPost, path: "/v1/estimate", body: `{"slot":999999}`, status: http.StatusBadRequest, code: "bad_request"},
	{route: "estimate", method: http.MethodPost, path: "/v1/estimate", body: `{"slot":10,"observed":{"nope":1}}`, status: http.StatusBadRequest, code: "bad_request"},
	{route: "query", method: http.MethodGet, path: "/v1/query", status: http.StatusMethodNotAllowed, code: "method_not_allowed"},
	{route: "query", method: http.MethodPost, path: "/v1/query", body: `{"queries":[]}`, status: http.StatusBadRequest, code: "bad_request"},
	{route: "query", method: http.MethodPost, path: "/v1/query", body: `{"queries":[{"slot":10},{"slot":999999}]}`, status: http.StatusBadRequest, code: "bad_request"},
	{route: "forecast", method: http.MethodGet, path: "/v1/forecast", status: http.StatusMethodNotAllowed, code: "method_not_allowed"},
	{route: "index", method: http.MethodPost, path: "/v1/", body: `{}`, status: http.StatusMethodNotAllowed, code: "method_not_allowed"},
	{route: "index", method: http.MethodGet, path: "/v1/nosuchendpoint", status: http.StatusNotFound, code: "not_found"},
	{route: "route", method: http.MethodGet, path: "/v1/route", status: http.StatusMethodNotAllowed, code: "method_not_allowed"},
	{route: "route", method: http.MethodPost, path: "/v1/route", body: `{not json`, status: http.StatusBadRequest, code: "bad_request"},
	{route: "route", method: http.MethodPost, path: "/v1/route", body: `{"slot":102,"src":-1,"dst":3}`, status: http.StatusBadRequest, code: "bad_request"},
	{route: "route", method: http.MethodPost, path: "/v1/route", body: `{"slot":102,"src":0,"dst":99999}`, status: http.StatusBadRequest, code: "bad_request"},
	{route: "route", method: http.MethodPost, path: "/v1/route", body: `{"slot":102,"src":0,"dst":3,"horizon":99}`, status: http.StatusBadRequest, code: "bad_request"},
	{route: "route", method: http.MethodPost, path: "/v1/route", body: `{"slot":102,"src":0,"dst":3,"depart_minute":5000}`, status: http.StatusBadRequest, code: "bad_request"},
	{route: "route", method: http.MethodPost, path: "/v1/route", body: `{"slot":102,"src":0,"dst":3,"objective":"Bogus"}`, status: http.StatusBadRequest, code: "bad_request"},
	{route: "forecast", method: http.MethodPost, path: "/v1/forecast", body: `{"slot":999999,"horizon":2}`, status: http.StatusBadRequest, code: "bad_request"},
	{route: "forecast", method: http.MethodPost, path: "/v1/forecast", body: `{"slot":10,"horizon":99}`, status: http.StatusBadRequest, code: "bad_request"},
	{route: "forecast", method: http.MethodPost, path: "/v1/forecast", body: `{"slot":10,"horizon":2,"roads":[99999]}`, status: http.StatusBadRequest, code: "bad_request"},
	{route: "subscribe", method: http.MethodPost, path: "/v1/subscribe", body: `{}`, status: http.StatusMethodNotAllowed, code: "method_not_allowed"},
	{route: "subscribe", method: http.MethodGet, path: "/v1/subscribe?slot=999999", status: http.StatusBadRequest, code: "bad_request"},
	{route: "subscribe", method: http.MethodGet, path: "/v1/subscribe?slot=10&wait=forever", status: http.StatusBadRequest, code: "bad_request"},
	{route: "alerts", method: http.MethodDelete, path: "/v1/alerts", status: http.StatusMethodNotAllowed, code: "method_not_allowed"},
	{route: "alerts", method: http.MethodGet, path: "/v1/alerts?slot=bogus", status: http.StatusBadRequest, code: "bad_request"},
	{route: "alerts", method: http.MethodPost, path: "/v1/alerts", body: `{}`, status: http.StatusBadRequest, code: "bad_request"},
	{route: "alerts", method: http.MethodPost, path: "/v1/alerts", body: `{"slot":10,"predicates":[{"road":99999,"speed_below":20}]}`, status: http.StatusBadRequest, code: "bad_request"},
	{route: "alerts", method: http.MethodPost, path: "/v1/alerts", body: `{"slot":10,"predicates":[{"road":1,"speed_below":20,"confidence":1.5}]}`, status: http.StatusBadRequest, code: "bad_request"},
	{route: "estimate", method: http.MethodPost, path: "/v1/estimate", body: `{"slot":10,"level":1.2}`, status: http.StatusBadRequest, code: "bad_request"},
	{route: "forecast", method: http.MethodPost, path: "/v1/forecast", body: `{"slot":10,"horizon":2,"level":-0.5}`, status: http.StatusBadRequest, code: "bad_request"},
	{route: "healthz", method: http.MethodPost, path: "/v1/healthz", body: `{}`, status: http.StatusMethodNotAllowed, code: "method_not_allowed"},
	{route: "model", method: http.MethodDelete, path: "/v1/model", status: http.StatusMethodNotAllowed, code: "method_not_allowed"},
	{route: "model", method: http.MethodPost, path: "/v1/model", body: `{"action":"rollback"}`, status: http.StatusConflict, code: "conflict"},
	{route: "metrics", method: http.MethodPost, path: "/v1/metrics", body: `{}`, status: http.StatusMethodNotAllowed, code: "method_not_allowed"},
}

// routeInventoryExempt lists routes excused from envelope coverage with the
// reason; everything else in `routes` must appear in envelopeCases.
var routeInventoryExempt = map[string]string{
	"pprof": "net/http/pprof is an external handler surface with its own plain-text errors",
}

func TestGoldenErrorEnvelopes(t *testing.T) {
	ts, _, _ := newTestServer(t)
	client := &http.Client{}
	for _, tc := range envelopeCases {
		name := fmt.Sprintf("%s_%s_%d", tc.route, tc.method, tc.status)
		t.Run(name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.status, b)
			}
			env := decodeEnvelope(t, resp)
			if env.Error.Code != tc.code {
				t.Errorf("code = %q, want %q", env.Error.Code, tc.code)
			}
		})
	}
}

// TestRouteInventoryCovered is the CI tripwire: every route the mux serves
// (the closed `routes` set behind the per-route metrics) must have at least
// one envelope-on-error case, or be explicitly exempted with a reason.
func TestRouteInventoryCovered(t *testing.T) {
	covered := map[string]bool{}
	for _, tc := range envelopeCases {
		covered[tc.route] = true
	}
	for _, route := range routes {
		if routeInventoryExempt[route] != "" {
			if covered[route] {
				t.Errorf("route %q is exempt but also covered — drop the exemption", route)
			}
			continue
		}
		if !covered[route] {
			t.Errorf("route %q has no envelope-on-error coverage in envelopeCases", route)
		}
	}
	// And the reverse: a case must not reference a route the mux does not
	// serve (catches typos silently skipping coverage).
	known := map[string]bool{}
	for _, route := range routes {
		known[route] = true
	}
	for _, tc := range envelopeCases {
		if !known[tc.route] {
			t.Errorf("envelope case references unknown route %q", tc.route)
		}
	}
}

// TestRequestIDEcho checks both directions: a client-provided X-Request-ID is
// echoed into the header and envelope; an absent one is minted.
func TestRequestIDEcho(t *testing.T) {
	ts, _, _ := newTestServer(t)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/network", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "my-trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	env := decodeEnvelope(t, resp)
	if env.Error.RequestID != "my-trace-42" {
		t.Errorf("request_id = %q, want echo of my-trace-42", env.Error.RequestID)
	}
	// Success path carries the header too.
	resp2, err := http.Get(ts.URL + "/v1/network")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get("X-Request-ID") == "" {
		t.Error("success response missing minted X-Request-ID")
	}
}

// TestEstimateObservedOverrides: POST-only observation overrides shift the
// field around the overridden road.
func TestEstimateObservedOverrides(t *testing.T) {
	ts, _, _ := newTestServer(t)
	base := postJSON(t, ts.URL+"/v1/estimate", map[string]interface{}{
		"slot": 12, "roads": []int{5},
	})
	var before estimateResponse
	decode(t, base, &before)
	if !before.Degraded {
		t.Error("no-report estimate not degraded")
	}
	withObs := postJSON(t, ts.URL+"/v1/estimate", map[string]interface{}{
		"slot": 12, "roads": []int{5}, "observed": map[string]float64{"5": 3.5},
	})
	var after estimateResponse
	decode(t, withObs, &after)
	if after.Degraded {
		t.Error("override-backed estimate flagged degraded")
	}
	if after.Estimates["5"] != 3.5 {
		t.Errorf("override not pinned: %v", after.Estimates["5"])
	}
	if before.Estimates["5"] == after.Estimates["5"] {
		t.Error("override did not move the estimate")
	}
}

// TestObservedOverridePlausibility: an observation override passes the rule
// reports do (0 ≤ v ≤ the collector's MaxSpeed) on /v1/estimate and on every
// /v1/query entry. An implausible one is a 400 naming the road and value,
// and it never reaches GSP or the slot's warm-start seed.
func TestObservedOverridePlausibility(t *testing.T) {
	ts, _, _ := newTestServer(t)
	for _, v := range []float64{-40, 1e6, 160.0001} {
		entry := map[string]interface{}{"slot": 12, "roads": []int{3, 4}, "observed": map[string]float64{"3": v}}
		for _, c := range []struct {
			path string
			body interface{}
		}{
			{"/v1/estimate", entry},
			{"/v1/query", map[string]interface{}{"queries": []interface{}{entry}}},
		} {
			resp := postJSON(t, ts.URL+c.path, c.body)
			if resp.StatusCode != http.StatusBadRequest {
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Fatalf("%s override %v: status %d, want 400: %s", c.path, v, resp.StatusCode, b)
			}
			env := decodeEnvelope(t, resp)
			if msg := env.Error.Message; !strings.Contains(msg, "observed road 3") || !strings.Contains(msg, fmt.Sprint(v)) {
				t.Errorf("%s override %v: message %q does not name the road and value", c.path, v, msg)
			}
		}
	}
	var est estimateResponse
	decode(t, postJSON(t, ts.URL+"/v1/estimate", map[string]interface{}{"slot": 12, "roads": []int{4}}), &est)
	if est.WarmStarted {
		t.Error("a rejected override seeded the slot's warm start")
	}
}

// TestBatchQueryEndpoint: entries sharing a slot coalesce; results preserve
// order and slice per entry.
func TestBatchQueryEndpoint(t *testing.T) {
	ts, _, h := newTestServer(t)
	for _, road := range []int{1, 9, 17} {
		resp := postJSON(t, ts.URL+"/v1/report", map[string]interface{}{
			"road": road, "slot": 66, "speed": h.At(0, 66, road),
		})
		resp.Body.Close()
	}
	resp := postJSON(t, ts.URL+"/v1/query", map[string]interface{}{
		"queries": []map[string]interface{}{
			{"slot": 66, "roads": []int{1, 2}},
			{"slot": 66, "roads": []int{3}},
			{"slot": 72, "roads": []int{4, 5, 6}},
		},
	})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var out batchQueryResponse
	decode(t, resp, &out)
	if out.Queries != 3 || out.Slots != 2 {
		t.Errorf("queries=%d slots=%d, want 3/2", out.Queries, out.Slots)
	}
	if len(out.Results) != 3 {
		t.Fatalf("results = %d", len(out.Results))
	}
	wantSizes := []int{2, 1, 3}
	for i, res := range out.Results {
		if len(res.Estimates) != wantSizes[i] {
			t.Errorf("entry %d: %d estimates, want %d", i, len(res.Estimates), wantSizes[i])
		}
	}
	if out.Results[0].Slot != 66 || out.Results[2].Slot != 72 {
		t.Errorf("slots out of order: %d, %d", out.Results[0].Slot, out.Results[2].Slot)
	}
	// Same-slot entries share one field: overlapping values agree exactly.
	a := out.Results[0].Estimates
	bRes := postJSON(t, ts.URL+"/v1/estimate", map[string]interface{}{"slot": 66, "roads": []int{1, 2}})
	var b estimateResponse
	decode(t, bRes, &b)
	for id := range a {
		if math.Abs(a[id]-b.Estimates[id]) > 1e-2 {
			t.Errorf("road %s: batch %v vs estimate %v", id, a[id], b.Estimates[id])
		}
	}
}

// TestSubscribeLongPoll drives the digest-based long-poll protocol: first
// call answers immediately, an unchanged digest holds until the wait budget
// (204), a new report answers with a fresh digest.
func TestSubscribeLongPoll(t *testing.T) {
	ts, _, h := newTestServer(t)
	first, err := http.Get(ts.URL + "/v1/subscribe?slot=30&roads=1,2")
	if err != nil {
		t.Fatal(err)
	}
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first poll status %d", first.StatusCode)
	}
	var up subscribeResponse
	decode(t, first, &up)
	if up.Digest == "" || len(up.Speeds) != 2 {
		t.Fatalf("bad first update: %+v", up)
	}
	// Unchanged: a short wait returns 204.
	idle, err := http.Get(ts.URL + "/v1/subscribe?slot=30&roads=1,2&wait=80ms&digest=" + up.Digest)
	if err != nil {
		t.Fatal(err)
	}
	idle.Body.Close()
	if idle.StatusCode != http.StatusNoContent {
		t.Fatalf("idle poll status %d, want 204", idle.StatusCode)
	}
	// New report: the same poll now answers with a different digest.
	rep := postJSON(t, ts.URL+"/v1/report", map[string]interface{}{
		"road": 1, "slot": 30, "speed": h.At(0, 30, 1),
	})
	rep.Body.Close()
	second, err := http.Get(ts.URL + "/v1/subscribe?slot=30&roads=1,2&wait=2s&digest=" + up.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if second.StatusCode != http.StatusOK {
		t.Fatalf("second poll status %d", second.StatusCode)
	}
	var up2 subscribeResponse
	decode(t, second, &up2)
	if up2.Digest == up.Digest {
		t.Error("digest did not change after a new report")
	}
	if up2.Observed != 1 {
		t.Errorf("observed = %d, want 1", up2.Observed)
	}
}

// TestSubscribeSSE reads the event stream: an immediate first estimate event,
// then one more after a report lands.
func TestSubscribeSSE(t *testing.T) {
	ts, _, h := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/subscribe?slot=50&roads=3,4&stream=sse")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := make(chan subscribeResponse, 4)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if data, ok := strings.CutPrefix(line, "data: "); ok {
				var up subscribeResponse
				if json.Unmarshal([]byte(data), &up) == nil {
					events <- up
				}
			}
		}
	}()
	read := func(what string) subscribeResponse {
		select {
		case up := <-events:
			return up
		case <-time.After(3 * time.Second):
			t.Fatalf("no %s event within 3s", what)
			return subscribeResponse{}
		}
	}
	first := read("first")
	if first.Seq != 1 || len(first.Speeds) != 2 {
		t.Errorf("first event: %+v", first)
	}
	rep := postJSON(t, ts.URL+"/v1/report", map[string]interface{}{
		"road": 3, "slot": 50, "speed": h.At(0, 50, 3),
	})
	rep.Body.Close()
	second := read("second")
	if second.Seq != 2 || second.Observed != 1 {
		t.Errorf("second event: %+v", second)
	}
	if !second.WarmStarted {
		t.Error("second SSE refresh not warm-started")
	}
}

// TestSubscribeNoopChecks pins the digest loop behind both /v1/subscribe
// modes: a check that finds the slot's observations unchanged runs no GSP and
// counts crowdrtse_subscription_noop_refreshes_total, and each change runs
// exactly one propagation and sends exactly one event.
func TestSubscribeNoopChecks(t *testing.T) {
	ts, sys, h := newTestServer(t)
	pipe := sys.Obs()
	first, err := http.Get(ts.URL + "/v1/subscribe?slot=40&roads=1,2")
	if err != nil {
		t.Fatal(err)
	}
	var up subscribeResponse
	decode(t, first, &up)

	// Long-poll from the current digest: 204 after the wait, no GSP, and the
	// unchanged checks are counted.
	runs, noops := pipe.GSP.Runs.Value(), pipe.Batch.NoopRefreshes.Value()
	idle, err := http.Get(ts.URL + "/v1/subscribe?slot=40&roads=1,2&wait=80ms&digest=" + up.Digest)
	if err != nil {
		t.Fatal(err)
	}
	idle.Body.Close()
	if idle.StatusCode != http.StatusNoContent {
		t.Fatalf("idle poll status %d, want 204", idle.StatusCode)
	}
	if got := pipe.GSP.Runs.Value(); got != runs {
		t.Errorf("idle poll ran GSP (%d -> %d runs)", runs, got)
	}
	if got := pipe.Batch.NoopRefreshes.Value(); got <= noops {
		t.Errorf("idle poll counted no unchanged check (%d -> %d)", noops, got)
	}

	// SSE: one event for the current state, none while nothing changes, and
	// exactly one more, from one more GSP run, per new report.
	resp, err := http.Get(ts.URL + "/v1/subscribe?slot=40&roads=1,2&stream=sse")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := make(chan subscribeResponse, 4)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				var up subscribeResponse
				if json.Unmarshal([]byte(data), &up) == nil {
					events <- up
				}
			}
		}
	}()
	read := func(what string) subscribeResponse {
		select {
		case up := <-events:
			return up
		case <-time.After(3 * time.Second):
			t.Fatalf("no %s event within 3s", what)
			return subscribeResponse{}
		}
	}
	// quiet waits until the stream has made two more unchanged checks, then
	// requires that it sent nothing.
	quiet := func(what string) {
		n0 := pipe.Batch.NoopRefreshes.Value()
		for deadline := time.Now().Add(3 * time.Second); pipe.Batch.NoopRefreshes.Value() < n0+2; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the stream made no unchanged check within 3s", what)
			}
			time.Sleep(time.Millisecond)
		}
		select {
		case up := <-events:
			t.Fatalf("%s: unexpected event %+v", what, up)
		default:
		}
	}
	if ev := read("first"); ev.Seq != 1 || ev.Digest != up.Digest {
		t.Errorf("first event seq %d digest %s, want 1 and %s", ev.Seq, ev.Digest, up.Digest)
	}
	quiet("no report")
	runs = pipe.GSP.Runs.Value()
	rep := postJSON(t, ts.URL+"/v1/report", map[string]interface{}{
		"road": 1, "slot": 40, "speed": h.At(0, 40, 1),
	})
	rep.Body.Close()
	if ev := read("second"); ev.Seq != 2 || ev.Observed != 1 {
		t.Errorf("second event seq %d observed %d, want 2 and 1", ev.Seq, ev.Observed)
	}
	quiet("one report")
	if got := pipe.GSP.Runs.Value(); got != runs+1 {
		t.Errorf("one report ran %d GSP propagations, want 1", got-runs)
	}
}

// TestMetricsExposeBatchCounters: the Prometheus surface carries the PR-5
// amortization counters after batched traffic.
func TestMetricsExposeBatchCounters(t *testing.T) {
	ts, _, _ := newTestServer(t)
	// Two identical estimates: the second warm-starts. They carry no what-if
	// override, whose field is never a warm seed.
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/estimate", map[string]interface{}{
			"slot": 9, "roads": []int{0},
		})
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, name := range []string{
		"crowdrtse_gsp_warm_starts_total",
		"crowdrtse_warmstart_sweeps_saved_total",
		"crowdrtse_coalesced_queries_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("/v1/metrics missing %s", name)
		}
	}
	if !strings.Contains(text, "crowdrtse_gsp_warm_starts_total 1") {
		t.Error("warm-start counter did not record the second estimate")
	}
}
