package obs

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	var g *Gauge
	g.Set(3)
	g.AddDelta(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge should read 0")
	}
	var h *Histogram
	h.Observe(time.Second)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram should read 0")
	}
	var tr *Trace
	tr.Span("x", time.Time{})
	if tr.Spans() != nil {
		t.Fatal("nil trace should record nothing")
	}
	tr.Emit(slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil)))
}

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(2.5)
	g.AddDelta(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := newHistogram([]float64{0.01, 0.1, 1})
	for i := 0; i < 10; i++ {
		h.Observe(5 * time.Millisecond) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond) // second bucket
	}
	h.Observe(10 * time.Second) // overflow
	if h.Count() != 21 {
		t.Fatalf("count = %d, want 21", h.Count())
	}
	wantSum := 10*5*time.Millisecond + 10*50*time.Millisecond + 10*time.Second
	if h.Sum() != wantSum {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
	if p50 := h.Quantile(0.5); p50 <= 0 || p50 > 0.1 {
		t.Fatalf("p50 = %v, want within (0, 0.1]", p50)
	}
	// The overflow sample reports the largest bound, not +Inf.
	if p := h.Quantile(0.999); p != 1 {
		t.Fatalf("p99.9 = %v, want 1 (largest bound)", p)
	}
}

func TestRegistryIdempotentAndKindSafe(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "a counter")
	b := r.Counter("x_total", "a counter")
	if a != b {
		t.Fatal("re-registration should return the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge should panic")
		}
	}()
	r.Gauge("x_total", "oops")
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(`req_total{route="a"}`, "requests by route").Add(3)
	r.Counter(`req_total{route="b"}`, "requests by route").Add(4)
	r.Gauge("temp", "a gauge").Set(1.5)
	r.Histogram("lat_seconds", "latency", []float64{0.1, 1}).Observe(50 * time.Millisecond)
	r.CounterFunc("fn_total", "func-backed", func() uint64 { return 7 })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE req_total counter",
		`req_total{route="a"} 3`,
		`req_total{route="b"} 4`,
		"# TYPE temp gauge",
		"temp 1.5",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 1`,
		`lat_seconds_bucket{le="+Inf"} 1`,
		"lat_seconds_count 1",
		"fn_total 7",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE header for the labeled family, not one per series.
	if strings.Count(out, "# TYPE req_total") != 1 {
		t.Fatalf("labeled series should share one TYPE header:\n%s", out)
	}
}

func TestSnapshotAndValue(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(2)
	r.Histogram("h_seconds", "", []float64{1}).Observe(250 * time.Millisecond)
	snap := r.Snapshot()
	if snap["c_total"] != 2 {
		t.Fatalf("snapshot c_total = %v", snap["c_total"])
	}
	if snap["h_seconds_count"] != 1 || snap["h_seconds_sum"] != 0.25 {
		t.Fatalf("snapshot histogram = %v / %v", snap["h_seconds_count"], snap["h_seconds_sum"])
	}
	if _, ok := snap["h_seconds_p95"]; !ok {
		t.Fatal("snapshot should include quantiles")
	}
	if v, ok := r.Value("c_total"); !ok || v != 2 {
		t.Fatalf("Value(c_total) = %v, %v", v, ok)
	}
	if _, ok := r.Value("h_seconds"); ok {
		t.Fatal("Value should not resolve histograms")
	}
	if _, ok := r.Value("missing"); ok {
		t.Fatal("Value should not resolve unknown names")
	}
}

func TestFakeClockDeterminism(t *testing.T) {
	start := time.Unix(1000, 0)
	fc := NewFakeClock(start, time.Millisecond)
	t0 := fc.Now() // returns start, advances to start+1ms
	if !t0.Equal(start) {
		t.Fatalf("first Now = %v, want %v", t0, start)
	}
	if d := fc.Since(t0); d != time.Millisecond {
		t.Fatalf("Since = %v, want 1ms", d)
	}
	fc.Advance(time.Second)
	if d := fc.Since(t0); d != time.Second+time.Millisecond {
		t.Fatalf("Since after Advance = %v", d)
	}
	if got := fc.Current(); !got.Equal(start.Add(time.Second + time.Millisecond)) {
		t.Fatalf("Current = %v", got)
	}
}

func TestTraceRecordsAndEmits(t *testing.T) {
	fc := NewFakeClock(time.Unix(0, 0), time.Millisecond)
	tr := NewTrace("req-1", fc)
	s0 := fc.Now()
	fc.Advance(5 * time.Millisecond)
	tr.Span("ocs_select", s0, slog.Int("selected", 3))
	s1 := fc.Now()
	tr.Span("gsp", s1, slog.Bool("converged", true))

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Name != "ocs_select" || spans[0].Duration != 6*time.Millisecond {
		t.Fatalf("span[0] = %+v", spans[0])
	}

	var buf bytes.Buffer
	tr.Emit(slog.New(slog.NewJSONHandler(&buf, nil)), slog.String("route", "estimate"))
	out := buf.String()
	for _, want := range []string{`"trace":"req-1"`, `"span":"ocs_select"`, `"span":"gsp"`, `"route":"estimate"`, `"spans":2`} {
		if !strings.Contains(out, want) {
			t.Fatalf("emitted log missing %q:\n%s", want, out)
		}
	}
}

func TestTraceContextRoundtrip(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context should carry no trace")
	}
	tr := NewTrace("id", nil)
	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace not recovered from context")
	}
	if WithTrace(context.Background(), nil) == nil {
		t.Fatal("WithTrace(nil) should return the context unchanged")
	}
}

func TestPipelineRegistersEverything(t *testing.T) {
	reg := NewRegistry()
	p := NewPipeline(reg, nil)
	p.OCS.Solves.Inc()
	p.GSP.Runs.Inc()
	p.Stream.Accepted.Inc()
	snap := reg.Snapshot()
	for _, name := range []string{
		MOCSSolves, MOCSSelectedRoads,
		MGSPRuns, MGSPIterations, MGSPConverged, MGSPAborted,
		MStreamReports, MStreamReportsRejected,
		MTemporalPredicts, MTemporalUpdates,
	} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("pipeline did not register %s", name)
		}
	}
	// The filter fuses only crowd reports, so the GSP pseudo-observation
	// series is gone.
	if _, ok := snap["crowdrtse_temporal_pseudo_obs_total"]; ok {
		t.Error("pipeline registers the retired pseudo-observation series")
	}
	for _, name := range []string{MOCSSeconds, MGSPSeconds, MCorrRowSeconds} {
		if _, ok := snap[name+"_count"]; !ok {
			t.Fatalf("pipeline did not register histogram %s", name)
		}
	}
	if snap[MOCSSolves] != 1 || snap[MGSPRuns] != 1 || snap[MStreamReports] != 1 {
		t.Fatal("pipeline counters not wired to the registry instruments")
	}
}

func TestConcurrentInstrumentUse(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("conc_total", "")
	h := reg.Histogram("conc_seconds", "", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("got %d / %d, want 8000 each", c.Value(), h.Count())
	}
}
