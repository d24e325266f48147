package server

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/qos"
)

// fakePressure drives the admission controller's in-flight signal from a
// test-controlled knob: set(p) makes Pressure() read p (MaxInFlight = 100).
type fakePressure struct{ bits atomic.Uint64 }

func (f *fakePressure) set(p float64)     { f.bits.Store(math.Float64bits(p)) }
func (f *fakePressure) inFlight() float64 { return math.Float64frombits(f.bits.Load()) * 100 }

// qosTenants are the QoS fixture's tenants: ops (alerting), maps
// (interactive) and etl (batch).
var qosTenants = []qos.TenantConfig{
	{Key: "ops-key", Name: "ops", Class: qos.ClassAlerting},
	{Key: "maps-key", Name: "maps", Class: qos.ClassInteractive},
	{Key: "etl-key", Name: "etl", Class: qos.ClassBatch},
}

// newQoSServer builds a server with admission control over qosTenants (unless
// cfg names its own) plus the anonymous tenant, with pressure under test
// control.
func newQoSServer(tb testing.TB, cfg qos.Config) (*httptest.Server, *Server, *fakePressure) {
	tb.Helper()
	sys, _ := trainFixture(tb)
	srv := New(sys)
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 100
	}
	if cfg.Tenants == nil {
		cfg.Tenants = qosTenants
	}
	if err := srv.EnableQoS(cfg); err != nil {
		tb.Fatal(err)
	}
	fp := &fakePressure{}
	srv.QoS().SetSignals(fp.inFlight, func() float64 { return 0 })
	ts := httptest.NewServer(srv.Handler())
	tb.Cleanup(ts.Close)
	return ts, srv, fp
}

// doReq fires a request with optional API key / priority / request-ID headers.
func doReq(tb testing.TB, method, url, body string, headers map[string]string) *http.Response {
	tb.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		tb.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	return resp
}

func TestQoSDisabledUnlabeled(t *testing.T) {
	ts, _, _ := newTestServer(t) // no EnableQoS
	resp := postJSON(t, ts.URL+"/v1/estimate", map[string]interface{}{"slot": 10, "roads": []int{1}})
	var out estimateResponse
	decode(t, resp, &out)
	if out.Quality != "" || out.SD != nil || out.VarianceInflation != 0 {
		t.Fatalf("QoS-disabled response carries QoS fields: %+v", out)
	}
}

func TestQoSUnknownKeyUnauthorized(t *testing.T) {
	ts, _, _ := newQoSServer(t, qos.Config{DisableAnonymous: true})
	resp := doReq(t, http.MethodPost, ts.URL+"/v1/estimate",
		`{"slot":10,"roads":[1]}`, map[string]string{"X-API-Key": "wrong"})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status %d, want 401", resp.StatusCode)
	}
	env := decodeEnvelope(t, resp)
	if env.Error.Code != "unauthorized" {
		t.Fatalf("code %q", env.Error.Code)
	}
	// Keyless control-plane routes still work — healthz must never need a key.
	hz, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d with DisableAnonymous", hz.StatusCode)
	}
}

func TestQoSFullTierLabeled(t *testing.T) {
	ts, _, _ := newQoSServer(t, qos.Config{})
	resp := doReq(t, http.MethodPost, ts.URL+"/v1/estimate",
		`{"slot":10,"roads":[1,2],"observed":{"1":25.0}}`,
		map[string]string{"Authorization": "Bearer maps-key"})
	var out estimateResponse
	decode(t, resp, &out)
	if out.Quality != "full" || out.VarianceInflation != 1.0 {
		t.Fatalf("unpressured answer labeled %q ×%v", out.Quality, out.VarianceInflation)
	}
	if len(out.SD) != 2 {
		t.Fatalf("sd map has %d entries, want 2", len(out.SD))
	}
	// Road 1 is observed (SD pinned ~0); road 2 must carry real uncertainty.
	if out.SD["2"] <= 0 {
		t.Fatalf("unobserved road sd %v not positive", out.SD["2"])
	}
}

// TestQoSRateLimit429: the token bucket rejects with the unified envelope,
// Retry-After, and an echoed X-Request-ID.
func TestQoSRateLimit429(t *testing.T) {
	ts, _, _ := newQoSServer(t, qos.Config{Tenants: []qos.TenantConfig{
		{Key: "tiny-key", Name: "tiny", Class: qos.ClassInteractive, RatePerSec: 1, Burst: 2},
	}})
	hdr := map[string]string{"X-API-Key": "tiny-key", "X-Request-ID": "trace-77"}
	for i := 0; i < 2; i++ {
		resp := doReq(t, http.MethodPost, ts.URL+"/v1/estimate", `{"slot":10,"roads":[1]}`, hdr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d status %d", i, resp.StatusCode)
		}
	}
	resp := doReq(t, http.MethodPost, ts.URL+"/v1/estimate", `{"slot":10,"roads":[1]}`, hdr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	env := decodeEnvelope(t, resp)
	if env.Error.Code != "too_many_requests" {
		t.Errorf("code %q", env.Error.Code)
	}
	if env.Error.RequestID != "trace-77" {
		t.Errorf("request_id %q, want echo of trace-77", env.Error.RequestID)
	}
}

// TestEstimateGetAliasRemoved pins the PR 10 sunset: the deprecated GET
// /v1/estimate alias (Deprecation-headered since PR 5) is gone. GET now
// answers 405 in the unified envelope, with no Deprecation header, and the
// admitted POST form is unaffected.
func TestEstimateGetAliasRemoved(t *testing.T) {
	ts, _, _ := newQoSServer(t, qos.Config{})
	hdr := map[string]string{"X-API-Key": "etl-key", "X-Request-ID": "alias-1"}
	resp := doReq(t, http.MethodGet, ts.URL+"/v1/estimate?slot=10&roads=1,2", "", hdr)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", resp.StatusCode)
	}
	if resp.Header.Get("Deprecation") != "" {
		t.Error("removed alias still advertises Deprecation")
	}
	env := decodeEnvelope(t, resp)
	if env.Error.Code != "method_not_allowed" {
		t.Errorf("code %q", env.Error.Code)
	}
	if env.Error.RequestID != "alias-1" {
		t.Errorf("request_id %q", env.Error.RequestID)
	}
	post := doReq(t, http.MethodPost, ts.URL+"/v1/estimate", `{"slot":10,"roads":[1,2]}`, hdr)
	post.Body.Close()
	if post.StatusCode != http.StatusOK {
		t.Errorf("POST form status %d", post.StatusCode)
	}
}

// TestQoSBatchShedsAtomically pins satellite 2 for POST /v1/query: an
// n-entry batch is charged n tokens all-or-nothing — a refused batch leaves
// the bucket untouched, so a smaller batch still fits.
func TestQoSBatchShedsAtomically(t *testing.T) {
	ts, _, _ := newQoSServer(t, qos.Config{Tenants: []qos.TenantConfig{
		{Key: "b-key", Name: "bulk", Class: qos.ClassBatch, RatePerSec: 1, Burst: 4},
	}})
	hdr := map[string]string{"X-API-Key": "b-key"}
	big := `{"queries":[{"slot":10},{"slot":11},{"slot":12},{"slot":13},{"slot":14},{"slot":15}]}`
	resp := doReq(t, http.MethodPost, ts.URL+"/v1/query", big, hdr)
	if resp.StatusCode != http.StatusTooManyRequests {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("6-entry batch on a 4-token bucket: status %d (%s)", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("batch 429 missing Retry-After")
	}
	decodeEnvelope(t, resp)

	// The refused batch consumed nothing: a full-burst batch still fits.
	ok := doReq(t, http.MethodPost, ts.URL+"/v1/query",
		`{"queries":[{"slot":10,"roads":[1]},{"slot":11,"roads":[2]},{"slot":12,"roads":[3]},{"slot":13,"roads":[4]}]}`, hdr)
	defer ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(ok.Body)
		t.Fatalf("4-entry batch after atomic shed: status %d (%s)", ok.StatusCode, b)
	}
	var out batchQueryResponse
	decode(t, ok, &out)
	if len(out.Results) != 4 {
		t.Fatalf("results %d", len(out.Results))
	}
	for i, res := range out.Results {
		if res.Quality == "" {
			t.Errorf("batch entry %d missing quality label", i)
		}
	}
}

// TestQoSDegradedTierLabels drives the ladder through estimate responses:
// under pressure a batch tenant's answer degrades to the cached field (or
// prior on a cold slot) with inflated SD, and recovers to full afterwards.
func TestQoSDegradedTierLabels(t *testing.T) {
	ts, _, fp := newQoSServer(t, qos.Config{})
	hdr := map[string]string{"X-API-Key": "etl-key"}
	body := `{"slot":20,"roads":[3,4],"observed":{"3":22.0}}`

	// Cold slot at batch/cached pressure: the cache has nothing, the answer
	// falls through to prior and says so.
	fp.set(0.75)
	resp := doReq(t, http.MethodPost, ts.URL+"/v1/estimate", body, hdr)
	var prior estimateResponse
	decode(t, resp, &prior)
	if prior.Quality != "prior" {
		t.Fatalf("cold cached answer labeled %q, want prior fallthrough", prior.Quality)
	}
	if !prior.Degraded || !prior.FallbackPrior {
		t.Error("prior-tier answer not flagged degraded")
	}
	if prior.VarianceInflation != 1.0 {
		t.Errorf("prior inflation %v, want 1.0 (the prior's spread is Σ itself)", prior.VarianceInflation)
	}

	// Warm the slot at full service...
	fp.set(0)
	full := doReq(t, http.MethodPost, ts.URL+"/v1/estimate", body, hdr)
	var fullOut estimateResponse
	decode(t, full, &fullOut)
	if fullOut.Quality != "full" {
		t.Fatalf("unpressured answer labeled %q", fullOut.Quality)
	}

	// ...then the same pressure serves the cached field with inflated SD.
	fp.set(0.75)
	resp = doReq(t, http.MethodPost, ts.URL+"/v1/estimate", body, hdr)
	var cached estimateResponse
	decode(t, resp, &cached)
	if cached.Quality != "cached" {
		t.Fatalf("warm pressured answer labeled %q, want cached", cached.Quality)
	}
	if cached.VarianceInflation < 1 {
		t.Errorf("cached inflation %v < 1", cached.VarianceInflation)
	}
	for id, sd := range cached.SD {
		// The principled cached-tier price: AR(1) aging plus the evidence
		// gap. The request's evidence matches the stored field (road 3 was
		// pinned at 22.0 by the full pass) and the cache is milliseconds
		// old, so the widening is tiny — but never negative.
		if sd < fullOut.SD[id]-1e-9 {
			t.Errorf("road %s: cached sd %v narrower than full %v", id, sd, fullOut.SD[id])
		}
		if sd > fullOut.SD[id]+0.1 {
			t.Errorf("road %s: fresh matching cache widened %v -> %v", id, fullOut.SD[id], sd)
		}
		if cached.Estimates[id] != fullOut.Estimates[id] {
			t.Errorf("road %s: cached speed %v != last full %v", id, cached.Estimates[id], fullOut.Estimates[id])
		}
	}

	// Recovery: pressure gone, full pipeline again.
	fp.set(0)
	resp = doReq(t, http.MethodPost, ts.URL+"/v1/estimate", body, hdr)
	var after estimateResponse
	decode(t, resp, &after)
	if after.Quality != "full" || after.VarianceInflation != 1.0 {
		t.Fatalf("post-surge answer labeled %q ×%v, want full recovery", after.Quality, after.VarianceInflation)
	}
}

// TestQoSClassOrderAtSurge: at near-saturation pressure the server sheds
// batch, degrades interactive to prior, and keeps serving alerting.
func TestQoSClassOrderAtSurge(t *testing.T) {
	ts, _, fp := newQoSServer(t, qos.Config{})
	fp.set(0.94)
	body := `{"slot":30,"roads":[1]}`

	batch := doReq(t, http.MethodPost, ts.URL+"/v1/estimate", body, map[string]string{"X-API-Key": "etl-key"})
	batch.Body.Close()
	if batch.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch at 0.94: status %d, want 429", batch.StatusCode)
	}

	inter := doReq(t, http.MethodPost, ts.URL+"/v1/estimate", body, map[string]string{"X-API-Key": "maps-key"})
	var interOut estimateResponse
	decode(t, inter, &interOut)
	if interOut.Quality != "prior" {
		t.Fatalf("interactive at 0.94 served %q, want prior", interOut.Quality)
	}

	ops := doReq(t, http.MethodGet, ts.URL+"/v1/alerts?slot=30", "", map[string]string{"X-API-Key": "ops-key"})
	var opsOut alertsResponse
	decode(t, ops, &opsOut)
	if opsOut.Quality != "batched" {
		t.Fatalf("alerting at 0.94 served %q, want batched", opsOut.Quality)
	}
}

// TestQoSPriorityHeaderClamped: a batch tenant cannot promote itself to
// alerting with X-Priority — the class ceiling holds.
func TestQoSPriorityHeaderClamped(t *testing.T) {
	ts, _, fp := newQoSServer(t, qos.Config{})
	fp.set(0.94) // batch sheds here, alerting would not
	resp := doReq(t, http.MethodPost, ts.URL+"/v1/estimate", `{"slot":10,"roads":[1]}`,
		map[string]string{"X-API-Key": "etl-key", "X-Priority": "alerting"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("self-promoted batch tenant served (status %d), want clamp + shed", resp.StatusCode)
	}
	// An invalid priority is a 400, not silently ignored.
	bad := doReq(t, http.MethodPost, ts.URL+"/v1/estimate", `{"slot":10,"roads":[1]}`,
		map[string]string{"X-API-Key": "etl-key", "X-Priority": "vip"})
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus X-Priority status %d", bad.StatusCode)
	}
	decodeEnvelope(t, bad)
}

// TestQoSProbeQuota: select charges its budget against the tenant's probe
// quota; exhaustion answers 429 + Retry-After without running OCS.
func TestQoSProbeQuota(t *testing.T) {
	ts, _, _ := newQoSServer(t, qos.Config{Tenants: []qos.TenantConfig{
		{Key: "q-key", Name: "quotaed", Class: qos.ClassInteractive, ProbeQuota: 50},
	}})
	// Select needs workers.
	workers := make([]map[string]int, 20)
	for i := range workers {
		workers[i] = map[string]int{"road": i}
	}
	resp := postJSON(t, ts.URL+"/v1/workers", map[string]interface{}{"workers": workers})
	resp.Body.Close()

	hdr := map[string]string{"X-API-Key": "q-key"}
	ok := doReq(t, http.MethodPost, ts.URL+"/v1/select",
		`{"slot":10,"roads":[1,2,3],"budget":30,"theta":0.9}`, hdr)
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("first select status %d", ok.StatusCode)
	}
	over := doReq(t, http.MethodPost, ts.URL+"/v1/select",
		`{"slot":10,"roads":[1,2,3],"budget":30,"theta":0.9}`, hdr)
	if over.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota select status %d, want 429", over.StatusCode)
	}
	if over.Header.Get("Retry-After") == "" {
		t.Error("quota 429 missing Retry-After")
	}
	env := decodeEnvelope(t, over)
	if !strings.Contains(env.Error.Message, "quota") {
		t.Errorf("quota message: %q", env.Error.Message)
	}
}

// TestQoSHealthzMetricsUnified pins satellite 6: the healthz qos block and
// the /v1/metrics exposition read the same counters.
func TestQoSHealthzMetricsUnified(t *testing.T) {
	ts, srv, fp := newQoSServer(t, qos.Config{})
	hdrs := []map[string]string{
		{"X-API-Key": "ops-key"}, {"X-API-Key": "maps-key"}, {"X-API-Key": "etl-key"},
	}
	for i, hdr := range hdrs {
		for j := 0; j <= i; j++ { // 1 ops, 2 maps, 3 etl
			resp := doReq(t, http.MethodPost, ts.URL+"/v1/estimate", `{"slot":10,"roads":[1]}`, hdr)
			resp.Body.Close()
		}
	}
	fp.set(0.95)
	shed := doReq(t, http.MethodPost, ts.URL+"/v1/estimate", `{"slot":10,"roads":[1]}`, map[string]string{"X-API-Key": "etl-key"})
	shed.Body.Close()
	fp.set(0)

	var hz healthResponse
	hzResp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, hzResp, &hz)
	if hz.QoS == nil {
		t.Fatal("healthz missing qos block")
	}
	byName := map[string]qos.TenantReport{}
	for _, tr := range hz.QoS.Tenants {
		byName[tr.Name] = tr
	}
	if byName["ops"].Admitted["alerting"] != 1 || byName["maps"].Admitted["interactive"] != 2 ||
		byName["etl"].Admitted["batch"] != 3 {
		t.Fatalf("healthz admit counters: %+v", byName)
	}
	if byName["etl"].Shed["batch"] != 1 {
		t.Fatalf("healthz shed counters: %+v", byName["etl"])
	}

	// The exposition reads the same atomics.
	snap := srv.reg.Snapshot()
	checks := map[string]float64{
		`crowdrtse_qos_admitted_total{tenant="ops",class="alerting"}`:     1,
		`crowdrtse_qos_admitted_total{tenant="maps",class="interactive"}`: 2,
		`crowdrtse_qos_admitted_total{tenant="etl",class="batch"}`:        3,
		`crowdrtse_qos_shed_total{tenant="etl",class="batch"}`:            1,
	}
	for name, want := range checks {
		if got := snap[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if _, ok := snap["crowdrtse_qos_pressure"]; !ok {
		t.Error("metrics missing pressure gauge")
	}
	// And the Prometheus text carries them for scrapes.
	mResp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mResp.Body)
	mResp.Body.Close()
	if !strings.Contains(string(raw), "crowdrtse_qos_tier_total") {
		t.Error("/v1/metrics missing qos tier counters")
	}
}
