package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/qos"
	"repro/internal/speedgen"
)

// TestForecastEndpoint: a forecast fan over reported roads — correct shape,
// cyclic target slots, monotone SD, and means anchored by the fused reports.
func TestForecastEndpoint(t *testing.T) {
	ts, sys, h := newTestServer(t)
	// Feed reports at the base slot so the fan starts from real signal.
	for _, road := range []int{2, 5, 9} {
		resp := postJSON(t, ts.URL+"/v1/report", map[string]interface{}{
			"road": road, "slot": 100, "speed": h.At(0, 100, road),
		})
		resp.Body.Close()
	}
	resp := postJSON(t, ts.URL+"/v1/forecast", map[string]interface{}{
		"slot": 100, "roads": []int{2, 5, 9}, "horizon": 4,
	})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var out forecastResponse
	decode(t, resp, &out)
	if out.Slot != 100 || out.Horizon != 4 || out.Observed != 3 || out.Degraded {
		t.Fatalf("header fields: %+v", out)
	}
	if len(out.Steps) != 4 {
		t.Fatalf("steps = %d, want 4", len(out.Steps))
	}
	for i, st := range out.Steps {
		if st.Step != i+1 {
			t.Errorf("step %d numbered %d", i, st.Step)
		}
		if want := (100 + i + 1) % 288; st.Slot != want {
			t.Errorf("step %d slot = %d, want %d", i, st.Slot, want)
		}
		if len(st.Speeds) != 3 || len(st.SD) != 3 {
			t.Errorf("step %d sizes: speeds=%d sd=%d", i, len(st.Speeds), len(st.SD))
		}
	}
	// SD honestly widens (monotone non-decreasing per road across the fan).
	for _, road := range []string{"2", "5", "9"} {
		prev := 0.0
		for i, st := range out.Steps {
			if st.SD[road]+1e-12 < prev {
				t.Errorf("road %s: SD shrank at step %d (%v < %v)", road, i+1, st.SD[road], prev)
			}
			prev = st.SD[road]
		}
	}
	// Step-1 mean on a reported road sits off the bare prior (the report was
	// fused into the base state).
	mu := sys.Model().Mu(101, 2)
	if out.Steps[0].Speeds["2"] == mu {
		t.Error("forecast ignored the fused report (step-1 mean exactly the prior)")
	}

	// Default horizon and all-roads default.
	resp2 := postJSON(t, ts.URL+"/v1/forecast", map[string]interface{}{"slot": 101})
	var out2 forecastResponse
	decode(t, resp2, &out2)
	if out2.Horizon != defaultForecastHorizon || len(out2.Steps) != defaultForecastHorizon {
		t.Errorf("default horizon: %+v", out2.Horizon)
	}
	if len(out2.Steps[0].Speeds) != sys.Network().N() {
		t.Errorf("empty road set did not default to all %d roads (%d)",
			sys.Network().N(), len(out2.Steps[0].Speeds))
	}
	if !out2.Degraded {
		t.Error("report-less base slot not flagged degraded")
	}
}

// TestForecastReadOnlyFilter: /v1/forecast must never move or re-weight the
// shared filter. A base slot far from the filter's slot must not advance it
// (an unbounded Advance would decay all fused evidence and desynchronize the
// batcher's warm starts), and a dashboard polling the same slot must get the
// identical fan back — re-fusing the same aggregates into the live state
// would shrink P and make every reported SD progressively overconfident.
func TestForecastReadOnlyFilter(t *testing.T) {
	net := network.Synthetic(network.SyntheticOptions{Roads: 50, Seed: 3})
	h, err := speedgen.Generate(net, speedgen.Default(6, 4))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Train(net, h, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sys)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	filt := srv.Batcher().Temporal()
	if filt == nil {
		t.Fatal("server built without a temporal filter")
	}

	for _, road := range []int{2, 5} {
		resp := postJSON(t, ts.URL+"/v1/report", map[string]interface{}{
			"road": road, "slot": 100, "speed": h.At(0, 100, road),
		})
		resp.Body.Close()
	}
	slot0, fused0 := filt.Slot(), filt.Fused()
	body := map[string]interface{}{"slot": 100, "roads": []int{2, 5}, "horizon": 4}
	var out1 forecastResponse
	decode(t, postJSON(t, ts.URL+"/v1/forecast", body), &out1)
	if filt.Slot() != slot0 || filt.Fused() != fused0 {
		t.Fatalf("forecast mutated the shared filter: slot %v→%v fused %d→%d",
			slot0, filt.Slot(), fused0, filt.Fused())
	}
	var out2 forecastResponse
	decode(t, postJSON(t, ts.URL+"/v1/forecast", body), &out2)
	for i := range out1.Steps {
		for _, road := range []string{"2", "5"} {
			if out2.Steps[i].SD[road] != out1.Steps[i].SD[road] ||
				out2.Steps[i].Speeds[road] != out1.Steps[i].Speeds[road] {
				t.Fatalf("repeated poll changed the fan at step %d road %s: SD %v→%v",
					i+1, road, out1.Steps[i].SD[road], out2.Steps[i].SD[road])
			}
		}
	}
}

// TestForecastMidnightWrap: a fan based near midnight crosses into slot 0.
func TestForecastMidnightWrap(t *testing.T) {
	ts, _, _ := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/forecast", map[string]interface{}{
		"slot": 286, "roads": []int{1}, "horizon": 3,
	})
	var out forecastResponse
	decode(t, resp, &out)
	want := []int{287, 0, 1}
	for i, st := range out.Steps {
		if st.Slot != want[i] {
			t.Errorf("step %d slot = %d, want %d", i+1, st.Slot, want[i])
		}
	}
}

// TestForecastDepthMetric: the forecast depth histogram appears on
// /v1/metrics after a forecast.
func TestForecastDepthMetric(t *testing.T) {
	ts, _, _ := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/forecast", map[string]interface{}{
		"slot": 10, "roads": []int{0}, "horizon": 5,
	})
	resp.Body.Close()
	m, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Body.Close()
	raw, _ := io.ReadAll(m.Body)
	text := string(raw)
	for _, name := range []string{
		"crowdrtse_forecast_depth_slots",
		"crowdrtse_temporal_predicts_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("/v1/metrics missing %s", name)
		}
	}
}

// TestForecastQoSInteractiveClamp: an alerting-class tenant's forecast is
// admitted at interactive, never alerting.
func TestForecastQoSInteractiveClamp(t *testing.T) {
	ts, _, _ := newQoSServer(t, qos.Config{})
	resp := doReq(t, http.MethodPost, ts.URL+"/v1/forecast",
		`{"slot":20,"roads":[1],"horizon":2}`,
		map[string]string{"X-API-Key": "ops-key", "Content-Type": "application/json"})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var out forecastResponse
	decode(t, resp, &out)
	if out.Quality != "interactive" {
		t.Errorf("alerting tenant's forecast admitted at %q, want interactive", out.Quality)
	}
	// An explicit X-Priority: alerting is clamped the same way.
	resp2 := doReq(t, http.MethodPost, ts.URL+"/v1/forecast",
		`{"slot":20,"roads":[1],"horizon":2}`,
		map[string]string{"X-API-Key": "ops-key", "X-Priority": "alerting"})
	var out2 forecastResponse
	decode(t, resp2, &out2)
	if out2.Quality != "interactive" {
		t.Errorf("X-Priority alerting forecast admitted at %q, want interactive", out2.Quality)
	}
	// A batch tenant stays batch — the clamp only lowers.
	resp3 := doReq(t, http.MethodPost, ts.URL+"/v1/forecast",
		`{"slot":20,"roads":[1],"horizon":2}`,
		map[string]string{"X-API-Key": "etl-key"})
	var out3 forecastResponse
	decode(t, resp3, &out3)
	if out3.Quality != "batch" {
		t.Errorf("batch tenant's forecast admitted at %q, want batch", out3.Quality)
	}
}
