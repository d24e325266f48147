package server

import (
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"

	"repro/internal/obs"
)

// HTTP-surface metric names. Request counters carry a constant route label
// (label-in-name registration); responses are counted per status class.
const (
	MHTTPRequests  = "crowdrtse_http_requests_total"
	MHTTPResponses = "crowdrtse_http_responses_total"
	MHTTPInFlight  = "crowdrtse_http_in_flight_requests"
	MHTTPSeconds   = "crowdrtse_http_request_seconds"
)

// routes is the stable list of instrumented endpoints, the names of the
// apiTable rows (filled by api.go's init) so the metrics label set, GET /v1/
// and the route-inventory test cannot drift apart; anything else counts
// under "other" (404s, scrapes of wrong paths) so the by-route counters stay
// a closed set.
var routes []string

// httpMetrics is the request-level instrument block: per-route request
// counters, per-status-class response counters, an in-flight gauge and one
// latency histogram. All hot-path operations are atomic; the route lookup is
// a read of a prebuilt map.
type httpMetrics struct {
	byRoute  map[string]*obs.Counter
	other    *obs.Counter
	byClass  [6]*obs.Counter // index 1..5 = 1xx..5xx
	inFlight *obs.Gauge
	latency  *obs.Histogram
}

func newHTTPMetrics(reg *obs.Registry) *httpMetrics {
	m := &httpMetrics{
		byRoute:  make(map[string]*obs.Counter, len(routes)),
		other:    reg.Counter(MHTTPRequests+`{route="other"}`, "HTTP requests by route"),
		inFlight: reg.Gauge(MHTTPInFlight, "HTTP requests currently being served"),
		latency:  reg.Histogram(MHTTPSeconds, "HTTP request latency", nil),
	}
	for _, rt := range routes {
		m.byRoute[rt] = reg.Counter(fmt.Sprintf("%s{route=%q}", MHTTPRequests, rt), "HTTP requests by route")
	}
	for c := 1; c <= 5; c++ {
		m.byClass[c] = reg.Counter(fmt.Sprintf("%s{class=\"%dxx\"}", MHTTPResponses, c), "HTTP responses by status class")
	}
	return m
}

func (m *httpMetrics) route(name string) *obs.Counter {
	if c, ok := m.byRoute[name]; ok {
		return c
	}
	return m.other
}

func (m *httpMetrics) class(status int) *obs.Counter {
	c := status / 100
	if c < 1 || c > 5 {
		c = 5
	}
	return m.byClass[c]
}

// routeName maps a request path to its instrument label.
func routeName(path string) string {
	switch {
	case path == "/v1/":
		return "index"
	case len(path) > 4 && path[:4] == "/v1/":
		return path[4:]
	case len(path) >= 12 && path[:12] == "/debug/pprof":
		return "pprof"
	default:
		return "other"
	}
}

// statusWriter captures the response status for the class counters and the
// trace summary line.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so the SSE subscribe stream can
// push events through the middleware chain (no-op when unsupported).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withObs is the outermost middleware: it counts the request by route,
// tracks in-flight requests, measures latency on the server clock, counts the
// response status class, and correlates the request. Every request gets an
// X-Request-ID — echoed from the client's header or minted — stashed in the
// context (error envelopes embed it) and set on the response. When TraceLog
// is set the ID additionally keys an obs.Trace whose OCS/probe/GSP spans are
// emitted as structured log lines after the response (the `crowdrtse serve
// -trace` output).
func (s *Server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m := s.httpm
		route := routeName(r.URL.Path)
		m.route(route).Inc()
		m.inFlight.AddDelta(1)
		defer m.inFlight.AddDelta(-1)
		start := s.clock.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
		}
		sw.Header().Set("X-Request-ID", id)
		ctx := withRequestID(r.Context(), id)
		var tr *obs.Trace
		if s.TraceLog != nil {
			tr = obs.NewTrace(id, s.clock)
			ctx = obs.WithTrace(ctx, tr)
		}
		r = r.WithContext(ctx)
		next.ServeHTTP(sw, r)
		d := s.clock.Since(start)
		m.latency.Observe(d)
		m.class(sw.status).Inc()
		if tr != nil {
			tr.Emit(s.TraceLog,
				slog.String("route", route),
				slog.Int("status", sw.status),
				slog.Duration("dur", d),
			)
		}
	})
}

// handleMetrics serves the registry in the Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// mountPprof attaches the standard net/http/pprof handlers.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Registry exposes the server's instrument registry (tests and embedders).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Pipeline exposes the server's pipeline instrument set.
func (s *Server) Pipeline() *obs.Pipeline { return s.pipe }

// SetClock replaces every time source behind the server — request latency,
// uptime, collector staleness, pipeline instruments — with clk
// (deterministic tests pass an obs.FakeClock). Because instrument
// registration is idempotent, the rebuilt pipeline shares the already
// registered counters; only the clock changes. Call before serving traffic.
func (s *Server) SetClock(clk obs.Clock) {
	if clk == nil {
		clk = obs.SystemClock()
	}
	s.clock = clk
	s.pipe = obs.NewPipeline(s.reg, clk)
	s.sys.Instrument(s.pipe)
	if s.shards != nil {
		s.shards.Instrument(s.pipe)
	}
	col := s.batcher.Collector()
	col.SetClock(clk)
	col.SetMetrics(s.pipe.Stream)
	s.started = clk.Now()
}

// obsRollup is the /v1/healthz observability block: counters a serving
// process moves, read from the same instruments /v1/metrics exports, so the
// two surfaces cannot diverge.
type obsRollup struct {
	GSPRuns         uint64  `json:"gsp_runs"`
	ReportsAccepted uint64  `json:"reports_accepted"`
	ReportsRejected uint64  `json:"reports_rejected"`
	HTTPInFlight    float64 `json:"http_in_flight"`
}

func (s *Server) rollup() *obsRollup {
	p := s.pipe
	return &obsRollup{
		GSPRuns:         p.GSP.Runs.Value(),
		ReportsAccepted: p.Stream.Accepted.Value(),
		ReportsRejected: p.Stream.Rejected.Value(),
		HTTPInFlight:    s.httpm.inFlight.Value(),
	}
}
