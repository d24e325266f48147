// PR 9 surface tests: credible intervals on /v1/estimate and /v1/forecast,
// per-road provenance labels, and the POST /v1/alerts predicate form.
package server

import (
	"io"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/stattest"
)

// TestEstimateIntervals: every estimate carries per-road intervals at the
// requested level that bracket the estimate, are consistent with the
// posterior SD, and are narrower at lower levels.
func TestEstimateIntervals(t *testing.T) {
	ts, sys, h := newTestServer(t)
	if err := sys.SetObsNoise(core.DefaultObsNoise(sys.Network())); err != nil {
		t.Fatal(err)
	}
	body := map[string]interface{}{
		"slot": 100, "observed": map[string]float64{"2": h.At(0, 100, 2), "9": h.At(0, 100, 9)},
		"level": 0.8,
	}
	resp := postJSON(t, ts.URL+"/v1/estimate", body)
	var out estimateResponse
	decode(t, resp, &out)
	if out.Level != 0.8 {
		t.Fatalf("level %v, want 0.8", out.Level)
	}
	n := sys.Network().N()
	if len(out.Intervals) != n || len(out.Provenance) != n {
		t.Fatalf("intervals %d provenance %d, want %d roads", len(out.Intervals), len(out.Provenance), n)
	}
	for key, iv := range out.Intervals {
		est := out.Estimates[key]
		if !(iv.Lo <= est && est <= iv.Hi) {
			t.Fatalf("road %s: interval [%v, %v] does not bracket estimate %v", key, iv.Lo, iv.Hi, est)
		}
	}
	// With heteroscedastic noise installed even an observed road carries a
	// non-degenerate interval: the probe is evidence, not gospel.
	if iv := out.Intervals["2"]; iv.Hi <= iv.Lo {
		t.Fatalf("observed road 2: degenerate interval [%v, %v] despite obs noise", iv.Lo, iv.Hi)
	}
	if got := out.Provenance["2"]; got != "observed" {
		t.Fatalf("road 2 provenance %q, want observed", got)
	}
	fused := 0
	for _, p := range out.Provenance {
		if p == "fused" {
			fused++
		}
	}
	if fused == 0 {
		t.Fatal("no road labeled fused")
	}

	// Level ordering: the 0.5 interval is strictly inside the 0.95 one.
	body["level"] = 0.5
	var narrow estimateResponse
	decode(t, postJSON(t, ts.URL+"/v1/estimate", body), &narrow)
	body["level"] = 0.95
	var wide estimateResponse
	decode(t, postJSON(t, ts.URL+"/v1/estimate", body), &wide)
	for key := range wide.Intervals {
		wn := narrow.Intervals[key].Hi - narrow.Intervals[key].Lo
		ww := wide.Intervals[key].Hi - wide.Intervals[key].Lo
		if ww > 0 && wn >= ww {
			t.Fatalf("road %s: level 0.5 width %v not narrower than level 0.95 width %v", key, wn, ww)
		}
	}
}

// TestEstimateIntervalDefaults: an unspecified level serves 0.9 and the GET
// form accepts ?level=.
func TestEstimateIntervalDefaults(t *testing.T) {
	ts, _, _ := newTestServer(t)
	var out estimateResponse
	decode(t, postJSON(t, ts.URL+"/v1/estimate", map[string]interface{}{"slot": 10}), &out)
	if out.Level != 0.9 {
		t.Fatalf("default level %v, want 0.9", out.Level)
	}
	var out2 estimateResponse
	decode(t, postJSON(t, ts.URL+"/v1/estimate", map[string]interface{}{
		"slot": 10, "roads": []int{1, 2}, "level": 0.75,
	}), &out2)
	if out2.Level != 0.75 || len(out2.Intervals) != 2 {
		t.Fatalf("level %v intervals %d", out2.Level, len(out2.Intervals))
	}
}

// TestAlertPredicates: the posterior predicate form of /v1/alerts — a road
// reported deep below its prior fires "speed < threshold with ≥conf", a
// free-flowing road does not, and the judged posterior rides along.
func TestAlertPredicates(t *testing.T) {
	ts, sys, _ := newTestServer(t)
	if err := sys.SetObsNoise(core.DefaultObsNoise(sys.Network())); err != nil {
		t.Fatal(err)
	}
	prior, _ := sys.PriorField(100)
	// Road 4 crawls at 5 km/h; road 7 reports its prior (free flow).
	for road, speed := range map[int]float64{4: 5, 7: prior[7]} {
		resp := postJSON(t, ts.URL+"/v1/report", map[string]interface{}{
			"road": road, "slot": 100, "speed": speed,
		})
		resp.Body.Close()
	}
	resp := postJSON(t, ts.URL+"/v1/alerts", map[string]interface{}{
		"slot": 100,
		"predicates": []map[string]interface{}{
			{"road": 4, "speed_below": 15, "confidence": 0.9},
			{"road": 7, "speed_below": 15, "confidence": 0.9},
		},
	})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var out alertsPredicateResponse
	decode(t, resp, &out)
	if out.Degraded {
		t.Fatal("observed slot flagged degraded")
	}
	if len(out.Results) != 2 || out.Fired != 1 {
		t.Fatalf("results %d fired %d, want 2/1", len(out.Results), out.Fired)
	}
	byRoad := map[int]predicateResultJSON{}
	for _, res := range out.Results {
		byRoad[res.Road] = res
	}
	slow := byRoad[4]
	if !slow.Fired || slow.Probability < 0.9 {
		t.Fatalf("crawling road predicate: %+v", slow)
	}
	if slow.Provenance != "observed" || slow.SD <= 0 {
		t.Fatalf("posterior not threaded into predicate result: %+v", slow)
	}
	// The reported probability must be the Gaussian tail of the reported
	// posterior — the response is self-consistent.
	if want := stattest.ExceedProb(slow.Estimate, slow.SD, 15); slow.Probability != want {
		t.Fatalf("probability %v != ExceedProb(%v, %v, 15) = %v", slow.Probability, slow.Estimate, slow.SD, want)
	}
	if fast := byRoad[7]; fast.Fired {
		t.Fatalf("free-flow road fired: %+v", fast)
	}
}

// TestAlertPredicatesDegraded: predicates over a slot with zero observations
// are judged against the prior and flagged degraded.
func TestAlertPredicatesDegraded(t *testing.T) {
	ts, _, _ := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/alerts", map[string]interface{}{
		"slot":       55,
		"predicates": []map[string]interface{}{{"road": 1, "speed_below": 10}},
	})
	var out alertsPredicateResponse
	decode(t, resp, &out)
	if !out.Degraded {
		t.Fatal("zero-observation predicate scan not flagged degraded")
	}
	if len(out.Results) != 1 || out.Results[0].Confidence != 0.9 {
		t.Fatalf("default confidence: %+v", out.Results)
	}
	if out.Results[0].Provenance != "prior" {
		t.Fatalf("unobserved road provenance %q, want prior", out.Results[0].Provenance)
	}
}

// TestForecastIntervals: the fan's intervals bracket the means and widen
// monotonically with the horizon (the variance clamp, surfaced).
func TestForecastIntervals(t *testing.T) {
	ts, _, h := newTestServer(t)
	for _, road := range []int{2, 5} {
		resp := postJSON(t, ts.URL+"/v1/report", map[string]interface{}{
			"road": road, "slot": 100, "speed": h.At(0, 100, road),
		})
		resp.Body.Close()
	}
	resp := postJSON(t, ts.URL+"/v1/forecast", map[string]interface{}{
		"slot": 100, "roads": []int{2, 5}, "horizon": 5, "level": 0.9,
	})
	var out forecastResponse
	decode(t, resp, &out)
	if out.Level != 0.9 {
		t.Fatalf("level %v", out.Level)
	}
	for _, road := range []int{2, 5} {
		key := strconv.Itoa(road)
		prevWidth := 0.0
		for i, st := range out.Steps {
			iv := st.Intervals[key]
			mean := st.Speeds[key]
			if !(iv.Lo <= mean && mean <= iv.Hi) {
				t.Fatalf("road %s step %d: [%v, %v] does not bracket %v", key, i+1, iv.Lo, iv.Hi, mean)
			}
			width := iv.Hi - iv.Lo
			if width+1e-12 < prevWidth {
				t.Fatalf("road %s: interval narrowed at step %d (%v < %v)", key, i+1, width, prevWidth)
			}
			prevWidth = width
		}
	}
}

// TestVarMinSelectorHTTP: the variance-minimizing OCS objective is
// selectable per request.
func TestVarMinSelectorHTTP(t *testing.T) {
	ts, _, _ := newTestServer(t)
	workers := make([]map[string]int, 0, 20)
	for r := 0; r < 20; r++ {
		workers = append(workers, map[string]int{"road": r})
	}
	resp := postJSON(t, ts.URL+"/v1/workers", map[string]interface{}{"workers": workers})
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/select", map[string]interface{}{
		"slot": 100, "roads": []int{30, 35, 40}, "budget": 6, "theta": 0.92,
		"selector": "VarMin",
	})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("VarMin select status %d: %s", resp.StatusCode, b)
	}
	var out selectResponse
	decode(t, resp, &out)
	if len(out.Roads) == 0 || out.Value <= 0 {
		t.Fatalf("VarMin selection empty: %+v", out)
	}
}
