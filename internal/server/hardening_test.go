package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/speedgen"
)

// newRawServer builds the Server (not just the httptest wrapper) so tests
// can tweak hardening knobs before serving.
func newRawServer(tb testing.TB) (*Server, *core.System) {
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
	return New(sys), sys
}

func TestHealthzDegradedThenOK(t *testing.T) {
	srv, _ := newRawServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Fresh server: no workers, no reports → degraded.
	var h struct {
		Status           string  `json:"status"`
		Workers          int     `json:"workers"`
		ReportSlots      int     `json:"report_slots"`
		TotalReports     int     `json:"total_reports"`
		LastReportAgeSec float64 `json:"last_report_age_seconds"`
		CollectorStale   bool    `json:"collector_stale"`
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, &h)
	if h.Status != "degraded" || !h.CollectorStale || h.LastReportAgeSec != -1 {
		t.Errorf("fresh healthz = %+v, want degraded/stale/no-reports", h)
	}

	// Register workers and push a report → ok.
	postJSON(t, ts.URL+"/v1/workers", map[string]interface{}{
		"workers": []map[string]int{{"road": 1}, {"road": 2}},
	}).Body.Close()
	postJSON(t, ts.URL+"/v1/report", map[string]interface{}{
		"road": 1, "slot": 100, "speed": 42.0,
	}).Body.Close()
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, &h)
	if h.Status != "ok" || h.Workers != 2 || h.TotalReports != 1 || h.ReportSlots != 1 {
		t.Errorf("healthy healthz = %+v", h)
	}
	if h.CollectorStale || h.LastReportAgeSec < 0 {
		t.Errorf("collector staleness wrong: %+v", h)
	}

	// Wrong method.
	resp2 := postJSON(t, ts.URL+"/v1/healthz", map[string]int{})
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/healthz = %d", resp2.StatusCode)
	}
}

func TestHealthzStaleCollector(t *testing.T) {
	srv, _ := newRawServer(t)
	clk := obs.NewFakeClock(time.Unix(1_700_000_000, 0), 0)
	srv.SetClock(clk)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	postJSON(t, ts.URL+"/v1/workers", map[string]interface{}{
		"workers": []map[string]int{{"road": 1}},
	}).Body.Close()
	postJSON(t, ts.URL+"/v1/report", map[string]interface{}{
		"road": 1, "slot": 100, "speed": 42.0,
	}).Body.Close()
	clk.Advance(staleAfter + time.Second)
	var h struct {
		Status         string `json:"status"`
		CollectorStale bool   `json:"collector_stale"`
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, &h)
	if h.Status != "degraded" || !h.CollectorStale {
		t.Errorf("stale collector not reported: %+v", h)
	}
}

func TestEstimateDegradedFlag(t *testing.T) {
	srv, _ := newRawServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// No reports: the estimate is the periodicity prior → degraded.
	var est struct {
		Observed      int  `json:"observed_roads"`
		Degraded      bool `json:"degraded"`
		FallbackPrior bool `json:"fallback_prior"`
	}
	resp := postJSON(t, ts.URL+"/v1/estimate", map[string]interface{}{"slot": 100, "roads": []int{1, 2}})
	decode(t, resp, &est)
	if !est.Degraded || !est.FallbackPrior || est.Observed != 0 {
		t.Errorf("prior-only estimate not degraded: %+v", est)
	}

	// With a report the flag clears.
	postJSON(t, ts.URL+"/v1/report", map[string]interface{}{
		"road": 1, "slot": 100, "speed": 42.0,
	}).Body.Close()
	resp = postJSON(t, ts.URL+"/v1/estimate", map[string]interface{}{"slot": 100, "roads": []int{1, 2}})
	decode(t, resp, &est)
	if est.Degraded || est.FallbackPrior || est.Observed != 1 {
		t.Errorf("observed estimate still degraded: %+v", est)
	}

	// Alerts carry the flag too.
	var al struct {
		Degraded bool `json:"degraded"`
	}
	resp, err := http.Get(ts.URL + "/v1/alerts?slot=200")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, &al)
	if !al.Degraded {
		t.Error("prior-only alerts not degraded")
	}
}

func TestRecoveryMiddleware(t *testing.T) {
	srv, _ := newRawServer(t)
	// Route a panicking handler through the same middleware stack.
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	h := srv.withRecovery(srv.withBodyLimit(srv.withTimeout(mux)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic returned %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "internal panic") {
		t.Errorf("panic body %q", rec.Body.String())
	}
}

// TestBodyLimit: a well-formed estimate body over the 1 MiB limit, which the
// route would otherwise serve, is refused with the decoder's 400 naming the
// limit.
func TestBodyLimit(t *testing.T) {
	srv, _ := newRawServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	big := `{"slot":100,"roads":[` + strings.Repeat("0,", maxBodyBytes/2) + `0]}`
	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		resp.Body.Close()
		t.Fatalf("oversized body = %d, want 400", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); !strings.Contains(env.Error.Message, "request body too large") {
		t.Errorf("oversized body answered %q, want the body limit named", env.Error.Message)
	}
	// A normal-sized report still works.
	resp2 := postJSON(t, ts.URL+"/v1/report", map[string]interface{}{
		"road": 1, "slot": 100, "speed": 42.0,
	})
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("small body = %d", resp2.StatusCode)
	}
}

// Concurrent report ingestion and estimation must be race-clean (run with
// -race) and every response well-formed.
func TestConcurrentReportAndEstimate(t *testing.T) {
	srv, _ := newRawServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp := postJSON(t, ts.URL+"/v1/report", map[string]interface{}{
					"road": (g*20 + i) % 50, "slot": 100, "speed": 40.0 + float64(i),
				})
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("report %d/%d: %d", g, i, resp.StatusCode)
					return
				}
			}
		}(g)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp := postJSON(t, ts.URL+"/v1/estimate", map[string]interface{}{"slot": 100})
				var est struct {
					Estimates map[string]float64 `json:"estimates"`
				}
				decode(t, resp, &est)
				if len(est.Estimates) != 50 {
					errs <- fmt.Errorf("estimate %d/%d: %d roads", g, i, len(est.Estimates))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
