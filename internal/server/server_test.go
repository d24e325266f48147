package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

// trainFixture trains the test servers' system: the 50-road synthetic
// network with seed 3 over 6 days of speedgen history, which it also returns.
func trainFixture(tb testing.TB) (*core.System, *speedgen.History) {
	tb.Helper()
	net := network.Synthetic(network.SyntheticOptions{Roads: 50, Seed: 3})
	h, err := speedgen.Generate(net, speedgen.Default(6, 4))
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := core.Train(net, h, core.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return sys, h
}

func newTestServer(tb testing.TB) (*httptest.Server, *core.System, *speedgen.History) {
	tb.Helper()
	sys, h := trainFixture(tb)
	ts := httptest.NewServer(New(sys).Handler())
	tb.Cleanup(ts.Close)
	return ts, sys, h
}

func postJSON(tb testing.TB, url string, body interface{}) *http.Response {
	tb.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		tb.Fatal(err)
	}
	return resp
}

func decode(tb testing.TB, resp *http.Response, v interface{}) {
	tb.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		tb.Fatal(err)
	}
}

func TestNetworkEndpoint(t *testing.T) {
	ts, sys, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/network")
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		Roads int `json:"roads"`
		Edges int `json:"edges"`
	}
	decode(t, resp, &info)
	if info.Roads != sys.Network().N() || info.Edges != sys.Network().M() {
		t.Errorf("info = %+v", info)
	}
	// wrong method
	resp2 := postJSON(t, ts.URL+"/v1/network", map[string]int{})
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/network = %d", resp2.StatusCode)
	}
}

func TestWorkersEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t)
	body := map[string]interface{}{
		"workers": []map[string]int{{"road": 1}, {"road": 2}, {"road": 2}},
	}
	resp := postJSON(t, ts.URL+"/v1/workers", body)
	var out map[string]int
	decode(t, resp, &out)
	if out["workers"] != 3 {
		t.Errorf("workers = %d", out["workers"])
	}
	// out-of-range road
	bad := map[string]interface{}{"workers": []map[string]int{{"road": 999}}}
	resp2 := postJSON(t, ts.URL+"/v1/workers", bad)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad worker road status = %d", resp2.StatusCode)
	}
}

func TestReportValidation(t *testing.T) {
	ts, _, _ := newTestServer(t)
	cases := []reportRequest{
		{Road: -1, Slot: 0, Speed: 50},
		{Road: 0, Slot: 999, Speed: 50},
		{Road: 0, Slot: 0, Speed: -3},
		{Road: 0, Slot: 0, Speed: 500},
	}
	for i, c := range cases {
		resp := postJSON(t, ts.URL+"/v1/report", c)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d status = %d", i, resp.StatusCode)
		}
	}
	ok := postJSON(t, ts.URL+"/v1/report", reportRequest{Road: 0, Slot: 100, Speed: 44})
	var out map[string]int
	decode(t, ok, &out)
	if out["answers"] != 1 {
		t.Errorf("answers = %d", out["answers"])
	}
}

func TestSelectEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t)
	// no workers yet
	sel := selectRequest{Slot: 100, Roads: []int{1, 2, 3}, Budget: 10, Theta: 0.92}
	resp := postJSON(t, ts.URL+"/v1/select", sel)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("select without workers = %d", resp.StatusCode)
	}
	// register workers everywhere
	ws := make([]map[string]int, 50)
	for i := range ws {
		ws[i] = map[string]int{"road": i}
	}
	postJSON(t, ts.URL+"/v1/workers", map[string]interface{}{"workers": ws}).Body.Close()

	resp2 := postJSON(t, ts.URL+"/v1/select", sel)
	var out selectResponse
	decode(t, resp2, &out)
	if len(out.Roads) == 0 || out.Cost > 10 {
		t.Errorf("select = %+v", out)
	}
	// bad selector
	sel.Selector = "Oracle"
	resp3 := postJSON(t, ts.URL+"/v1/select", sel)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("bad selector status = %d", resp3.StatusCode)
	}
}

func TestEstimateFlow(t *testing.T) {
	ts, sys, h := newTestServer(t)
	slot := 100
	day := h.Days - 1
	// Report ground truth on a few roads.
	for _, road := range []int{0, 7, 19} {
		resp := postJSON(t, ts.URL+"/v1/report", reportRequest{
			Road: road, Slot: slot, Speed: h.At(day, 100, road),
		})
		resp.Body.Close()
	}
	resp := postJSON(t, ts.URL+"/v1/estimate", map[string]interface{}{
		"slot": slot, "roads": []int{0, 1, 2, 7},
	})
	var out estimateResponse
	decode(t, resp, &out)
	if out.Observed != 3 {
		t.Errorf("observed = %d", out.Observed)
	}
	if len(out.Estimates) != 4 {
		t.Errorf("estimates = %v", out.Estimates)
	}
	if !out.Converged {
		t.Error("GSP did not converge")
	}
	// Reported roads are pinned.
	if got := out.Estimates["0"]; got != h.At(day, 100, 0) {
		t.Errorf("road 0 estimate %v != report %v", got, h.At(day, 100, 0))
	}
	_ = sys
}

func TestEstimateDefaultsToAllRoads(t *testing.T) {
	ts, sys, _ := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/estimate", map[string]interface{}{"slot": 50})
	var out estimateResponse
	decode(t, resp, &out)
	if len(out.Estimates) != sys.Network().N() {
		t.Errorf("estimates = %d, want all %d roads", len(out.Estimates), sys.Network().N())
	}
	// With no reports, estimates equal the periodic means.
	view := sys.Model().At(50)
	for i := 0; i < sys.Network().N(); i++ {
		if out.Estimates[strconv.Itoa(i)] != view.Mu[i] {
			t.Fatalf("road %d deviates from mu without reports", i)
		}
	}
}

func TestEstimateValidation(t *testing.T) {
	ts, _, _ := newTestServer(t)
	for _, body := range []map[string]interface{}{
		{"slot": "abc"},                     // bad slot type
		{"slot": 999},                       // out of range slot
		{"slot": 1, "roads": []string{"x"}}, // bad roads type
		{"slot": 1, "roads": []int{99999}},  // out-of-range road
	} {
		resp := postJSON(t, ts.URL+"/v1/estimate", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%v status = %d", body, resp.StatusCode)
		}
	}
}

func TestMalformedBodies(t *testing.T) {
	ts, _, _ := newTestServer(t)
	for _, path := range []string{"/v1/workers", "/v1/report", "/v1/select"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte("{not json")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s malformed body status = %d", path, resp.StatusCode)
		}
	}
}

func TestAlertsEndpoint(t *testing.T) {
	ts, sys, _ := newTestServer(t)
	slot := 100
	// No reports: no alerts (everything rests at μ with full prior SD).
	resp, err := http.Get(fmt.Sprintf("%s/v1/alerts?slot=%d", ts.URL, slot))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Observed int `json:"observed_roads"`
		Alerts   []struct {
			Road int     `json:"road"`
			Z    float64 `json:"z"`
		} `json:"alerts"`
	}
	decode(t, resp, &out)
	if out.Observed != 0 || len(out.Alerts) != 0 {
		t.Fatalf("quiet network raised alerts: %+v", out)
	}
	// Report a dramatic slowdown on a strong-periodicity road.
	view := sys.Model().At(tslot.Slot(slot))
	jam := -1
	for r := 0; r < sys.Network().N(); r++ {
		if view.Sigma[r] < 0.12*view.Mu[r] {
			jam = r
			break
		}
	}
	if jam < 0 {
		t.Skip("no strong-periodicity road in fixture")
	}
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/report", reportRequest{
			Road: jam, Slot: slot, Speed: view.Mu[jam] * 0.2,
		}).Body.Close()
	}
	resp2, err := http.Get(fmt.Sprintf("%s/v1/alerts?slot=%d", ts.URL, slot))
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp2, &out)
	found := false
	for _, a := range out.Alerts {
		if a.Road == jam {
			found = true
		}
	}
	if !found {
		t.Fatalf("reported jam on road %d not alerted: %+v", jam, out)
	}
	// validation
	for _, url := range []string{"/v1/alerts", "/v1/alerts?slot=abc", "/v1/alerts?slot=999"} {
		r3, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		r3.Body.Close()
		if r3.StatusCode != http.StatusBadRequest {
			t.Errorf("%s status = %d", url, r3.StatusCode)
		}
	}
}

func TestParseSelector(t *testing.T) {
	for name, want := range map[string]core.Selector{
		"": core.Hybrid, "Hybrid": core.Hybrid, "Ratio": core.Ratio,
		"OBJ": core.Objective, "Objective": core.Objective,
		"Rand": core.RandomSel, "Random": core.RandomSel,
	} {
		got, err := parseSelector(name)
		if err != nil || got != want {
			t.Errorf("parseSelector(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := parseSelector("nope"); err == nil {
		t.Error("unknown selector accepted")
	}
}
