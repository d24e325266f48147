package server

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/gsp"
	"repro/internal/obs"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

// ledgerServer is a trainFixture server with its Server handle.
func ledgerServer(tb testing.TB) (*httptest.Server, *Server, *speedgen.History) {
	tb.Helper()
	sys, h := trainFixture(tb)
	srv := New(sys)
	ts := httptest.NewServer(srv.Handler())
	tb.Cleanup(ts.Close)
	return ts, srv, h
}

// reportAt posts one report per road at slot through POST /v1/report, each
// at the road's speed on the history's first day.
func reportAt(tb testing.TB, url string, h *speedgen.History, slot int, roads ...int) {
	tb.Helper()
	for _, r := range roads {
		resp := postJSON(tb, url+"/v1/report", reportBody(r, slot, h.At(0, tslot.Slot(slot), r)))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			tb.Fatalf("report road %d slot %d: status %d", r, slot, resp.StatusCode)
		}
	}
}

// TestReadsLeaveFilter: after reports at slots 4 and 5 have walked the
// filter to 5, twenty rounds of every read route — estimate (with and
// without a what-if override), query, route, forecast, alerts (GET and
// POST) and subscribe — leave the filter's slot, fused count and posterior
// bit-identical. The slots lie within 12 slots of the filter's start slot
// 0, so a read that could walk the filter would.
func TestReadsLeaveFilter(t *testing.T) {
	ts, srv, h := ledgerServer(t)
	reportAt(t, ts.URL, h, 4, 2, 5, 9)
	reportAt(t, ts.URL, h, 5, 2, 7)
	filt := srv.Batcher().Temporal()
	slot, fused, now := filt.Slot(), filt.Fused(), filt.Now()
	if slot != 5 || fused == 0 {
		t.Errorf("reports left the filter at slot %v with %d fused, want 5 and > 0", slot, fused)
	}
	reads := []struct{ method, path, body string }{
		{http.MethodPost, "/v1/estimate", `{"slot":5,"roads":[2,3]}`},
		{http.MethodPost, "/v1/estimate", `{"slot":6,"observed":{"3":12}}`},
		{http.MethodPost, "/v1/query", `{"queries":[{"slot":5},{"slot":5,"observed":{"4":20}}]}`},
		{http.MethodPost, "/v1/route", `{"slot":5,"src":0,"dst":30,"horizon":3}`},
		{http.MethodPost, "/v1/forecast", `{"slot":5,"horizon":4}`},
		{http.MethodGet, "/v1/alerts?slot=5", ""},
		{http.MethodPost, "/v1/alerts", `{"slot":5,"predicates":[{"road":2,"speed_below":30}]}`},
		{http.MethodGet, "/v1/subscribe?slot=5&roads=2,3&wait=1ms", ""},
	}
	for i := 0; i < 20; i++ {
		for _, rd := range reads {
			resp := doReq(t, rd.method, ts.URL+rd.path, rd.body, nil)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: status %d", rd.method, rd.path, resp.StatusCode)
			}
		}
	}
	if filt.Slot() != slot || filt.Fused() != fused || !reflect.DeepEqual(filt.Now(), now) {
		t.Errorf("reads moved the filter: slot %v→%v, fused %d→%d", slot, filt.Slot(), fused, filt.Fused())
	}
}

// TestFilterFollowsLateStart: a server first used at 07:00 — reports and
// estimates at slots 84–95, nothing earlier — has its filter at 95 with
// evidence fused, not stuck at its start slot 0.
func TestFilterFollowsLateStart(t *testing.T) {
	ts, srv, h := ledgerServer(t)
	for slot := 84; slot <= 95; slot++ {
		reportAt(t, ts.URL, h, slot, slot%50, (7*slot)%50)
		resp := postJSON(t, ts.URL+"/v1/estimate", map[string]interface{}{"slot": slot, "roads": []int{1}})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate slot %d: status %d", slot, resp.StatusCode)
		}
	}
	if filt := srv.Batcher().Temporal(); filt.Slot() != 95 || filt.Fused() == 0 {
		t.Errorf("filter at slot %v with %d fused, want 95 and > 0", filt.Slot(), filt.Fused())
	}
}

// TestNextDayStartsEmpty: after the filter has walked a full day, slot 100
// holds none of the previous day's reports. A report there answers 1, and
// the walk out of slot 100 fuses that day's one road, not an aggregate over
// both days.
func TestNextDayStartsEmpty(t *testing.T) {
	ts, srv, h := ledgerServer(t)
	post := func(road, slot int, speed float64) int {
		t.Helper()
		var out struct {
			Answers int `json:"answers"`
		}
		resp := postJSON(t, ts.URL+"/v1/report", reportBody(road, slot, speed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("report road %d slot %d: status %d", road, slot, resp.StatusCode)
		}
		decode(t, resp, &out)
		return out.Answers
	}
	for k := 0; k < 3; k++ {
		post(1, 100, 30)
	}
	post(2, 100, 30)
	for k := 1; k < tslot.PerDay; k++ {
		slot := (100 + k) % tslot.PerDay
		post(0, slot, h.At(0, tslot.Slot(slot), 0))
	}
	if got := post(1, 100, 60); got != 1 {
		t.Errorf("the next day's first report at slot 100 answers %d, want 1", got)
	}
	updates := srv.Pipeline().Temporal.Updates
	before := updates.Value()
	post(0, 101, h.At(0, 101, 0))
	if got := updates.Value() - before; got != 1 {
		t.Errorf("the walk out of slot 100 fused %d roads, want the 1 reported that day", got)
	}
}

// TestReadsAfterSilenceServeNothing: reports arrive from 07:00 to 18:55
// (slots 84–227), two roads a slot, on a fake clock, then nothing until 07:30
// the next day. Slot 90 still holds day 1's two roads, which the next report
// will empty, so no read serves them: estimate, a query entry, alerts GET
// and POST and forecast answer 0 observed roads and degraded, and a
// subscribe long-poll holding day 1's digest answers at once with 0 roads.
func TestReadsAfterSilenceServeNothing(t *testing.T) {
	ts, srv, h := ledgerServer(t)
	clk := obs.NewFakeClock(time.Date(2026, 10, 5, 7, 2, 0, 0, time.UTC), 0)
	srv.SetClock(clk)
	for slot := 84; slot <= 227; slot++ {
		reportAt(t, ts.URL, h, slot, slot%50, (slot+7)%50)
		clk.Advance(tslot.Duration)
	}
	var day1 subscribeResponse
	decode(t, doReq(t, http.MethodGet, ts.URL+"/v1/subscribe?slot=90&roads=1,2&wait=1ms", "", nil), &day1)
	if day1.Observed != 2 {
		t.Fatalf("on day 1 slot 90 serves %d roads, want 2", day1.Observed)
	}
	clk.Advance(12*time.Hour + 28*time.Minute) // 19:02 → 07:32

	for _, rd := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/estimate", `{"slot":90}`},
		{http.MethodPost, "/v1/query", `{"queries":[{"slot":90}]}`},
		{http.MethodGet, "/v1/alerts?slot=90", ""},
		{http.MethodPost, "/v1/alerts", `{"slot":90,"predicates":[{"road":1,"speed_below":30}]}`},
		{http.MethodPost, "/v1/forecast", `{"slot":90,"horizon":2}`},
	} {
		resp := doReq(t, rd.method, ts.URL+rd.path, rd.body, nil)
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("%s %s: status %d", rd.method, rd.path, resp.StatusCode)
		}
		var out estimateResponse
		if rd.path == "/v1/query" {
			var batch batchQueryResponse
			decode(t, resp, &batch)
			out = *batch.Results[0]
		} else {
			decode(t, resp, &out)
		}
		if out.Observed != 0 || !out.Degraded {
			t.Errorf("%s %s after the silence: %d observed roads, degraded %v; want 0 and true",
				rd.method, rd.path, out.Observed, out.Degraded)
		}
	}

	resp := doReq(t, http.MethodGet, ts.URL+"/v1/subscribe?slot=90&roads=1,2&wait=2s&digest="+day1.Digest, "", nil)
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("a long-poll holding day 1's digest answered %d, want 200 at once", resp.StatusCode)
	}
	var up subscribeResponse
	decode(t, resp, &up)
	if up.Observed != 0 || up.Digest == day1.Digest {
		t.Errorf("the long-poll answered %d roads with digest %q (day 1's %q), want 0 roads and a new digest",
			up.Observed, up.Digest, day1.Digest)
	}
}

// TestWhatIfOverrideStaysPrivate: a what-if override ("observed":{"3":1})
// answers its own request, on /v1/estimate and as a /v1/query entry, but
// neither the slot's cached-tier answer nor the filter carries its value or
// its provenance afterwards.
func TestWhatIfOverrideStaysPrivate(t *testing.T) {
	whatIf := map[string]interface{}{"slot": 5, "roads": []int{3}, "observed": map[string]float64{"3": 1}}
	for _, c := range []struct {
		route string
		body  interface{}
	}{
		{"estimate", whatIf},
		{"query", map[string]interface{}{"queries": []interface{}{whatIf}}},
	} {
		t.Run(c.route, func(t *testing.T) {
			ts, srv, h := ledgerServer(t)
			b := srv.Batcher()
			reportAt(t, ts.URL, h, 4, 1, 3)
			reportAt(t, ts.URL, h, 5, 1)
			postJSON(t, ts.URL+"/v1/estimate", map[string]interface{}{"slot": 5}).Body.Close()
			cached0, ok := b.CachedResult(5)
			if !ok {
				t.Fatal("slot 5 has no cached field after an estimate")
			}
			now0 := b.Temporal().Now()

			var out struct {
				Estimates map[string]float64 `json:"estimates"`
				Results   []estimateResponse `json:"results"`
			}
			decode(t, postJSON(t, ts.URL+"/v1/"+c.route, c.body), &out)
			if len(out.Results) == 1 {
				out.Estimates = out.Results[0].Estimates
			}
			if out.Estimates["3"] != 1 {
				t.Fatalf("the what-if answered road 3 at %v, want its override 1", out.Estimates["3"])
			}
			cached, ok := b.CachedResult(5)
			if !ok || cached.Speeds[3] == 1 || cached.Provenance[3] == gsp.ProvObserved {
				t.Errorf("cached field after the what-if: road 3 at %v, provenance %v", cached.Speeds[3], cached.Provenance[3])
			}
			if !reflect.DeepEqual(cached, cached0) {
				t.Error("the what-if replaced the slot's cached field")
			}
			if !reflect.DeepEqual(b.Temporal().Now(), now0) {
				t.Error("the what-if moved the filter")
			}
		})
	}
}
