package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/modelstore"
	"repro/internal/network"
	"repro/internal/speedgen"
	"repro/internal/stream"
	"repro/internal/tslot"
)

// newLifecycleServer spins up a server with the full model-lifecycle stack
// attached: store in a temp dir, manager, refitter wired to the server's own
// Batcher (its report collector and filter), and v1 already published.
func newLifecycleServer(tb testing.TB) (*httptest.Server, *Server, *core.System, *speedgen.History) {
	tb.Helper()
	net := network.Synthetic(network.SyntheticOptions{Roads: 40, Seed: 13})
	h, err := speedgen.Generate(net, speedgen.Default(5, 14))
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := core.Train(net, h, core.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	srv := New(sys)
	store, err := modelstore.Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	mgr, err := modelstore.NewManager(sys, store)
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, err := mgr.Publish(sys.Model().Clone(), modelstore.Meta{Source: "offline-fit"}, nil); err != nil {
		tb.Fatal(err)
	}
	refitter, err := modelstore.NewRefitter(mgr, srv.Batcher(), modelstore.RefitterConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	srv.AttachLifecycle(mgr, refitter)
	ts := httptest.NewServer(srv.Handler())
	tb.Cleanup(ts.Close)
	return ts, srv, sys, h
}

func postAction(tb testing.TB, url, action string) (*http.Response, map[string]json.RawMessage) {
	tb.Helper()
	resp := postJSON(tb, url+"/v1/model", map[string]string{"action": action})
	var body map[string]json.RawMessage
	decode(tb, resp, &body)
	return resp, body
}

func TestModelEndpointWithoutLifecycle(t *testing.T) {
	ts, sys, _ := newTestServer(t)
	var out struct {
		ModelGeneration uint64          `json:"model_generation"`
		Swaps           uint64          `json:"swaps"`
		Lifecycle       json.RawMessage `json:"lifecycle"`
	}
	resp, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/model: %d", resp.StatusCode)
	}
	decode(t, resp, &out)
	if out.ModelGeneration != sys.ModelVersion() {
		t.Errorf("generation %d, system says %d", out.ModelGeneration, sys.ModelVersion())
	}
	if out.Lifecycle != nil {
		t.Error("lifecycle block present without a manager")
	}
	// Actions require an attached lifecycle.
	resp = postJSON(t, ts.URL+"/v1/model", map[string]string{"action": "rollback"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("POST without lifecycle: %d, want 409", resp.StatusCode)
	}
}

func TestModelEndpointLifecycleFlow(t *testing.T) {
	ts, srv, sys, h := newLifecycleServer(t)

	// Stream reports into the server's collector, then trigger a refit.
	day := h.Days - 1
	slot := tslot.Slot(102)
	for r := 0; r < sys.Network().N(); r++ {
		truth := h.At(day, slot, r)
		for k := 0; k < 3; k++ {
			if err := srv.Collector().Add(stream.Report{Road: r, Slot: slot, Speed: truth}); err != nil {
				t.Fatal(err)
			}
		}
	}
	genBefore := sys.ModelVersion()
	resp, body := postAction(t, ts.URL, "refit")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refit: %d (%v)", resp.StatusCode, body)
	}
	var rep modelstore.RefitReport
	if err := json.Unmarshal(body["refit"], &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Published || rep.Version != 2 {
		t.Fatalf("refit report %+v", rep)
	}
	if sys.ModelVersion() <= genBefore {
		t.Error("refit did not hot-swap")
	}

	// GET reflects two versions and the refit attempt.
	var out modelResponse
	getResp, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, getResp, &out)
	if out.Lifecycle == nil || out.Lifecycle.CurrentVersion != 2 {
		t.Fatalf("lifecycle block %+v", out.Lifecycle)
	}
	if len(out.History) != 2 {
		t.Errorf("history has %d entries", len(out.History))
	}
	if out.RefitAttempts != 1 || out.Refit == nil {
		t.Errorf("refit attempts %d, refit %v", out.RefitAttempts, out.Refit)
	}

	// Rollback through the API.
	resp, body = postAction(t, ts.URL, "rollback")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback: %d (%v)", resp.StatusCode, body)
	}
	var version uint64
	if err := json.Unmarshal(body["version"], &version); err != nil {
		t.Fatal(err)
	}
	if version != 1 {
		t.Errorf("rollback landed on v%d", version)
	}
	// Rolling back past v1 is a 409, not a 500.
	resp, _ = postAction(t, ts.URL, "rollback")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("rollback past oldest: %d, want 409", resp.StatusCode)
	}

	// Reload re-serves the store's current version.
	resp, _ = postAction(t, ts.URL, "reload")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("reload: %d", resp.StatusCode)
	}

	// Unknown action.
	resp, _ = postAction(t, ts.URL, "explode")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown action: %d, want 400", resp.StatusCode)
	}
}

func TestHealthzLifecycleCounters(t *testing.T) {
	ts, _, sys, _ := newLifecycleServer(t)
	var out struct {
		ModelGeneration uint64             `json:"model_generation"`
		ModelSwaps      uint64             `json:"model_swaps"`
		Lifecycle       *modelstore.Status `json:"lifecycle"`
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, &out)
	if out.ModelGeneration != sys.ModelVersion() || out.ModelSwaps != sys.Swaps() {
		t.Errorf("healthz generation/swaps (%d, %d) vs system (%d, %d)",
			out.ModelGeneration, out.ModelSwaps, sys.ModelVersion(), sys.Swaps())
	}
	if out.Lifecycle == nil || out.Lifecycle.Published != 1 {
		t.Errorf("lifecycle block %+v", out.Lifecycle)
	}
}

// TestRefitKeepsServedSlot: a refit leaves the slot being served alone.
// Forty reports at slot 100 through POST /v1/report walk the filter there,
// so the refit has no closed slot to fold, and the next estimate of slot 100
// still sees all forty.
func TestRefitKeepsServedSlot(t *testing.T) {
	ts, _, sys, h := newLifecycleServer(t)
	for r := 0; r < sys.Network().N(); r++ {
		resp := postJSON(t, ts.URL+"/v1/report", reportBody(r, 100, h.At(h.Days-1, 100, r)))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("report road %d: status %d", r, resp.StatusCode)
		}
	}
	if resp, body := postAction(t, ts.URL, "refit"); resp.StatusCode != http.StatusOK {
		t.Fatalf("refit: %d (%v)", resp.StatusCode, body)
	}
	var out estimateResponse
	decode(t, postJSON(t, ts.URL+"/v1/estimate", map[string]interface{}{"slot": 100, "roads": []int{1}}), &out)
	if out.Observed != 40 || out.Provenance["1"] != "observed" {
		t.Errorf("after the refit slot 100 sees %d observed roads, road 1 %q; want 40 and observed",
			out.Observed, out.Provenance["1"])
	}
}
