package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/shard"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

// TestAttachShardsSurfaces wires a 2-shard engine into the server and checks
// both observability surfaces: /v1/healthz gains the per-shard block and
// /v1/metrics the shard-labeled oracle-cache series, with counters that move
// when an HTTP request does work through the engine.
func TestAttachShardsSurfaces(t *testing.T) {
	net := network.Synthetic(network.SyntheticOptions{Roads: 60, Seed: 9})
	h, err := speedgen.Generate(net, speedgen.Default(6, 10))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Train(net, h, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sys)
	eng, err := shard.New(sys, shard.Config{Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachShards(eng)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Drive one cross-shard selection through the handler so the per-shard
	// Γ caches miss at least once (estimation alone never touches the
	// correlation oracle).
	workers := make([]map[string]int, net.N())
	for i := range workers {
		workers[i] = map[string]int{"road": i}
	}
	for _, call := range []struct {
		path string
		body interface{}
	}{
		{"/v1/workers", map[string]interface{}{"workers": workers}},
		{"/v1/select", map[string]interface{}{
			"slot": 30, "roads": []int{2, net.N() - 1}, "budget": 6, "theta": 0.92, "selector": "Hybrid", "seed": 1,
		}},
	} {
		resp := postJSON(t, ts.URL+call.path, call.body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", call.path, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Shards []shard.ShardReport `json:"shards"`
	}
	decode(t, resp, &health)
	if len(health.Shards) != 2 {
		t.Fatalf("healthz shards = %d, want 2", len(health.Shards))
	}
	totalOwned := 0
	misses := uint64(0)
	for _, rep := range health.Shards {
		totalOwned += rep.Roads
		misses += rep.OracleCache.Misses
	}
	if totalOwned != net.N() {
		t.Errorf("owned roads sum to %d, want %d", totalOwned, net.N())
	}
	if misses == 0 {
		t.Error("per-shard oracle caches report zero misses after a select")
	}

	series := scrapeMetrics(t, ts.URL)
	if got := series["crowdrtse_shards"]; got != 2 {
		t.Errorf("crowdrtse_shards = %v, want 2", got)
	}
	var exported float64
	for p := 0; p < 2; p++ {
		exported += series[metricName("crowdrtse_shard", p, "_oracle_cache_misses_total")]
	}
	if exported != float64(misses) {
		t.Errorf("metrics misses = %v, healthz misses = %d — surfaces disagree", exported, misses)
	}
}

func metricName(prefix string, p int, suffix string) string {
	return prefix + string(rune('0'+p)) + suffix
}

// servingStep is one answer of the serving script: the route kind that
// produced it, its status and its body.
type servingStep struct {
	kind   string
	status int
	body   []byte
}

// runServingScript drives one deterministic request script through srv's
// handler: register workers, then for each of slots 2–5 an estimate of
// the empty slot, six reports, an estimate, an estimate with an override, a
// one-entry /v1/query, alerts (GET and POST), four routes, a forecast, a
// select, a budgeted route and a subscribe poll. Requests go one at a time,
// so no two race for a slot's singleflight or warm seed. The slots sit
// within the temporal filter's reach of its start slot 0, so estimates feed
// the filter and routes and forecasts are priced from its fan.
func runServingScript(t *testing.T, srv *Server, net *network.Network, profiles []speedgen.Profile) []servingStep {
	t.Helper()
	h := srv.Handler()
	var steps []servingStep
	do := func(kind, method, target string, body interface{}) {
		var raw []byte
		if body != nil {
			var err error
			if raw, err = json.Marshal(body); err != nil {
				t.Fatal(err)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(raw)))
		steps = append(steps, servingStep{kind: kind, status: rec.Code, body: rec.Body.Bytes()})
	}
	n := net.N()
	var workers []map[string]int
	for r := 0; r < n; r += 5 {
		workers = append(workers, map[string]int{"road": r})
	}
	do("workers", http.MethodPost, "/v1/workers", map[string]interface{}{"workers": workers})
	for slot := 2; slot <= 5; slot++ {
		ts := tslot.Slot(slot)
		do("estimate", http.MethodPost, "/v1/estimate", map[string]interface{}{"slot": slot})
		for i := 0; i < 6; i++ {
			road := (slot*37 + i*61) % n
			do("report", http.MethodPost, "/v1/report", map[string]interface{}{
				"road": road, "slot": slot, "speed": profiles[road].Speed(ts) * (0.8 + 0.05*float64(i)),
			})
		}
		do("estimate", http.MethodPost, "/v1/estimate", map[string]interface{}{"slot": slot})
		over := (slot * 13) % n
		do("estimate", http.MethodPost, "/v1/estimate", map[string]interface{}{
			"slot": slot, "observed": map[string]float64{strconv.Itoa(over): profiles[over].Speed(ts) * 0.85},
		})
		query := []int{slot % n, (slot * 3) % n, (slot * 7) % n}
		do("query", http.MethodPost, "/v1/query", map[string]interface{}{
			"queries": []map[string]interface{}{{"slot": slot, "roads": query}},
		})
		do("alerts", http.MethodGet, "/v1/alerts?slot="+strconv.Itoa(slot), nil)
		do("alerts", http.MethodPost, "/v1/alerts", map[string]interface{}{
			"slot": slot, "predicates": []map[string]interface{}{
				{"road": query[0], "speed_below": profiles[query[0]].Speed(ts)},
				{"road": query[1], "speed_below": profiles[query[1]].Speed(ts) * 0.9, "confidence": 0.6},
			},
		})
		for i := 0; i < 4; i++ {
			src := (slot*11 + i*97) % n
			do("route", http.MethodPost, "/v1/route", map[string]interface{}{
				"slot": slot, "src": src, "dst": (src + 50 + 40*i) % n, "horizon": 6,
			})
		}
		do("forecast", http.MethodPost, "/v1/forecast", map[string]interface{}{
			"slot": slot, "roads": query, "horizon": 3,
		})
		do("select", http.MethodPost, "/v1/select", map[string]interface{}{
			"slot": slot, "roads": query, "budget": 8, "theta": 0.92, "seed": 1,
		})
		src := (slot * 19) % n
		do("route-budget", http.MethodPost, "/v1/route", map[string]interface{}{
			"slot": slot, "src": src, "dst": (src + 120) % n, "horizon": 6, "budget": 6,
		})
		do("subscribe", http.MethodGet, fmt.Sprintf("/v1/subscribe?slot=%d&roads=%d,%d&wait=1s", slot, query[0], query[1]), nil)
	}
	return steps
}

// TestShardedServingEquivalence drives the serving script against an
// unsharded server and against servers that serve through a shard.Engine
// (AttachShards). One shard answers every request identically; two shards
// whose halo spans the network differ only where the budget is split across
// shards by design (/v1/select and a budgeted route's probes); four shards
// with the default halo stay within the halo-stitching bounds on estimates
// and route ETAs, and forecast identically — every probe is fused once, into
// the server's one filter.
func TestShardedServingEquivalence(t *testing.T) {
	net := network.Metro(network.MetroOptions{Roads: 400, Districts: 4, Seed: 1})
	model, profiles, err := speedgen.MetroModel(net, speedgen.MetroConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(cfg *shard.Config) []servingStep {
		sys, err := core.NewFromModel(net, model, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		srv := New(sys)
		if cfg != nil {
			eng, err := shard.New(sys, *cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv.AttachShards(eng)
		}
		return runServingScript(t, srv, net, profiles)
	}
	want := serve(nil)
	for i, st := range want {
		if st.status != http.StatusOK {
			t.Fatalf("unsharded step %d (%s): status %d: %s", i, st.kind, st.status, st.body)
		}
	}
	compare := func(name string, got []servingStep, same func(i int) bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d steps, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i].status != want[i].status {
				t.Errorf("%s step %d (%s): status %d, want %d: %s", name, i, want[i].kind, got[i].status, want[i].status, got[i].body)
			} else if same(i) && !bytes.Equal(got[i].body, want[i].body) {
				t.Errorf("%s step %d (%s) differs:\n got %s\nwant %s", name, i, want[i].kind, got[i].body, want[i].body)
			}
		}
	}

	compare("1 shard", serve(&shard.Config{Shards: 1, Seed: 1}), func(int) bool { return true })

	full := serve(&shard.Config{Shards: 2, Seed: 1, HaloHops: net.N()})
	compare("2 shards, full halo", full, func(i int) bool {
		switch want[i].kind {
		case "select":
			return false
		case "route-budget":
			if a, b := withoutProbes(t, full[i].body), withoutProbes(t, want[i].body); !reflect.DeepEqual(a, b) {
				t.Errorf("2 shards, full halo step %d: budgeted route differs beyond its probes", i)
			}
			return false
		}
		return true
	})

	four := serve(&shard.Config{Shards: 4, Seed: 1})
	compare("4 shards", four, func(i int) bool { return want[i].kind == "forecast" })
	var etaSum, etaMax, estMean, estMax float64
	routes, moved := 0, 0
	for i := range want {
		switch want[i].kind {
		case "estimate":
			if !bytes.Equal(four[i].body, want[i].body) {
				moved++
			}
			var a, b struct {
				Estimates  map[string]float64 `json:"estimates"`
				Provenance map[string]string  `json:"provenance"`
			}
			decodeBody(t, four[i].body, &a)
			decodeBody(t, want[i].body, &b)
			var sum, worst float64
			for road, w := range b.Estimates {
				got, ok := a.Estimates[road]
				if !ok {
					t.Fatalf("4 shards step %d: road %s missing", i, road)
				}
				if b.Provenance[road] == "observed" && got != w {
					t.Errorf("4 shards step %d: observed road %s = %v, want %v", i, road, got, w)
				}
				rel := math.Abs(got-w) / w
				sum += rel
				worst = math.Max(worst, rel)
			}
			mean := sum / float64(len(b.Estimates))
			if mean > 0.01 || worst > 0.10 {
				t.Errorf("4 shards step %d: estimate deviation mean %.4f, max %.4f", i, mean, worst)
			}
			estMean, estMax = math.Max(estMean, mean), math.Max(estMax, worst)
		case "route", "route-budget":
			var a, b struct {
				ETA float64 `json:"eta_minutes"`
			}
			decodeBody(t, four[i].body, &a)
			decodeBody(t, want[i].body, &b)
			rel := math.Abs(a.ETA-b.ETA) / b.ETA
			etaSum += rel
			etaMax = math.Max(etaMax, rel)
			routes++
		}
	}
	t.Logf("4 shards: worst estimate deviation mean %.5f, max %.5f; route ETA deviation mean %.5f, max %.5f over %d routes",
		estMean, estMax, etaSum/float64(routes), etaMax, routes)
	if mean := etaSum / float64(routes); mean > 0.01 || etaMax > 0.10 {
		t.Errorf("4 shards: route ETA deviation mean %.4f, max %.4f over %d routes", mean, etaMax, routes)
	}
	if moved == 0 {
		t.Error("4 shards answered every estimate bit-identically: the engine served none of them")
	}
}

// withoutProbes decodes a route response and drops its probes block.
func withoutProbes(tb testing.TB, body []byte) map[string]json.RawMessage {
	tb.Helper()
	var m map[string]json.RawMessage
	decodeBody(tb, body, &m)
	delete(m, "probes")
	return m
}

func decodeBody(tb testing.TB, body []byte, v interface{}) {
	tb.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		tb.Fatalf("decode %s: %v", body, err)
	}
}
