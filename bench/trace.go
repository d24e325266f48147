package main

import (
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/router"
	"repro/internal/tslot"
)

// spanSink is the in-memory slog.Handler behind the server's TraceLog. The
// server logs, per traced request, one "span" record per pipeline stage
// (ocs_select, probe, gsp) and one "trace" summary with the route and the
// request's duration; all carry the request ID as "trace".
type spanSink struct {
	mu   sync.Mutex
	recs map[string][]serverSpan // request ID → spans, summary first
}

type serverSpan struct {
	name string
	dur  time.Duration
}

func newSpanSink() *spanSink { return &spanSink{recs: make(map[string][]serverSpan)} }

func (s *spanSink) logger() *slog.Logger { return slog.New(s) }

func (s *spanSink) Enabled(context.Context, slog.Level) bool { return true }
func (s *spanSink) WithAttrs([]slog.Attr) slog.Handler       { return s }
func (s *spanSink) WithGroup(string) slog.Handler            { return s }

func (s *spanSink) Handle(_ context.Context, r slog.Record) error {
	var id, name string
	var dur time.Duration
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "trace":
			id = a.Value.String()
		case "span":
			name = a.Value.String()
		case "route":
			name = "server." + a.Value.String()
		case "dur":
			dur = a.Value.Duration()
		}
		return true
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := serverSpan{name: name, dur: dur}
	if r.Message == "trace" {
		// The summary is logged after the stage spans; keep it first.
		s.recs[id] = append([]serverSpan{sp}, s.recs[id]...)
	} else {
		s.recs[id] = append(s.recs[id], sp)
	}
	return nil
}

// span is one node of an op's span tree. Client spans know their start;
// server and program spans only their duration.
type span struct {
	N      int     `json:"n"`
	Parent int     `json:"parent"` // -1 for an op
	ID     string  `json:"id"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us,omitempty"`
	Dur    float64 `json:"dur_us"`
	Self   float64 `json:"self_us"`
}

// traceReport is written to bench/out/<workload>.trace.json.
type traceReport struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Layers   []layer `json:"layers"`
	// ServerSelfUsP50 is the median self time over every server.<route>
	// span: the handler's own work outside the pipeline stages.
	ServerSelfUsP50 float64 `json:"server_self_us_p50"`
	// BlockingPath compares the median of (queue wait + every self time of
	// the op's tree) with the median op latency of the latency phase.
	BlockingPath struct {
		LatP50Ms  float64 `json:"lat_p50_ms"`
		PathP50Ms float64 `json:"path_p50_ms"`
		Ratio     float64 `json:"ratio"`
	} `json:"blocking_path"`
	Spans []span `json:"spans"`
}

// layer summarizes the self time of one span name over the latency phase.
type layer struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	PerOp     float64 `json:"per_op"`
	SelfUsP50 float64 `json:"self_us_p50"`
	SelfMsOp  float64 `json:"self_ms_per_op"`
}

// opTree builds one op's span tree from its client calls and the server's
// records, appending to spans; n numbers the spans across the run. Self time
// is a span's duration minus its children's.
func opTree(spans []span, wl workload, o *opRec, sink *spanSink) []span {
	add := func(parent int, id, name string, start, dur time.Duration) int {
		n := len(spans)
		spans = append(spans, span{N: n, Parent: parent, ID: id, Name: name, Start: us(start), Dur: us(dur), Self: us(dur)})
		if parent >= 0 {
			spans[parent].Self -= us(dur)
		}
		return n
	}
	first := len(spans)
	top := add(-1, wl.name+"-"+strconv.Itoa(o.idx), "op."+o.kind, o.sent, o.done-o.sent)
	for _, c := range o.calls {
		h := add(top, c.id, "http."+c.route, c.start, c.dur)
		recs := sink.recs[c.id]
		if len(recs) == 0 {
			continue
		}
		// Server spans know only their duration.
		srv := add(h, c.id, recs[0].name, 0, recs[0].dur)
		for _, sp := range recs[1:] {
			add(srv, c.id, sp.name, 0, sp.dur)
		}
	}
	for i := first; i < len(spans); i++ {
		spans[i].Self = max(spans[i].Self, 0)
	}
	return spans
}

// summarize builds every op's span tree, reduces the trees of the latency
// phase to per-name self times, and checks that the self times along each
// op's tree account for its latency.
func summarize(wl workload, seed int64, ops []*opRec, sink *spanSink, open bool) traceReport {
	rep := traceReport{Workload: wl.name, Seed: seed}
	selfs := map[string][]float64{}
	var paths, lats []float64
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, o := range ops {
		first := len(rep.Spans)
		rep.Spans = opTree(rep.Spans, wl, o, sink)
		if o.phase != 0 || o.err != nil {
			continue
		}
		path := us(o.sent - o.due)
		for _, sp := range rep.Spans[first:] {
			selfs[sp.Name] = append(selfs[sp.Name], sp.Self)
			path += sp.Self
		}
		paths = append(paths, path/1e3)
		lats = append(lats, ms(o.latency(open)))
	}
	names := make([]string, 0, len(selfs))
	for name := range selfs {
		names = append(names, name)
	}
	sort.Strings(names)
	var server []float64
	for _, name := range names {
		xs := selfs[name]
		if strings.HasPrefix(name, "server.") {
			server = append(server, xs...)
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		rep.Layers = append(rep.Layers, layer{
			Name: name, Count: len(xs), PerOp: ratio(float64(len(xs)), float64(len(lats))),
			SelfUsP50: quantile(xs, 0.5), SelfMsOp: ratio(sum/1e3, float64(len(lats))),
		})
	}
	rep.ServerSelfUsP50 = quantile(server, 0.5)
	rep.BlockingPath.LatP50Ms = quantile(lats, 0.5)
	rep.BlockingPath.PathP50Ms = quantile(paths, 0.5)
	rep.BlockingPath.Ratio = ratio(rep.BlockingPath.PathP50Ms, rep.BlockingPath.LatP50Ms)
	return rep
}

func (rep *traceReport) selfP50(name string) float64 {
	for _, l := range rep.Layers {
		if l.Name == name {
			return l.SelfUsP50
		}
	}
	return 0
}

func writeTrace(dir string, rep traceReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, rep.Workload+".trace.json"), data, 0o644)
}

// timeRouter times router.PlanETA on up to 200 of the phase's route inputs,
// over the field a route request would see: the slot's cached estimate, the
// prior beyond it.
func timeRouter(r *runner, ops []*opRec) []float64 {
	b := r.w.srv.Batcher()
	priors := map[tslot.Slot][2][]float64{}
	var out []float64
	for _, o := range sample(ops, kindRoute) {
		base := o.slot
		cached, ok := b.CachedResult(base)
		for k := 0; k <= r.wl.horizon; k++ {
			if t := base.Add(k); priors[t][0] == nil {
				speeds, sd := r.w.sys.PriorField(t)
				priors[t] = [2][]float64{speeds, sd}
			}
		}
		field := func(t tslot.Slot, road int) (router.SpeedDist, bool) {
			steps := (int(t) - int(base) + tslot.PerDay) % tslot.PerDay
			if steps > r.wl.horizon {
				return router.SpeedDist{}, false
			}
			if steps == 0 && ok {
				return router.SpeedDist{Mean: cached.Speeds[road], SD: cached.SD[road]}, true
			}
			p := priors[t]
			return router.SpeedDist{Mean: p[0][road], SD: p[1][road]}, true
		}
		start := time.Now()
		_, err := router.PlanETA(r.w.net, field, float64(base.StartMinute()), o.src, o.dst)
		if err == nil {
			out = append(out, us(time.Since(start)))
		}
	}
	return out
}

// timeForecast times the temporal filter's read-only forecast on up to 200
// of the phase's forecast inputs.
func timeForecast(r *runner, ops []*opRec) []float64 {
	filt := r.w.srv.Batcher().Temporal()
	if filt == nil {
		return nil
	}
	noise := r.w.sys.ObsNoiseFunc()
	var out []float64
	for _, o := range sample(ops, kindForecast) {
		observed := r.w.srv.Collector().Observations(o.slot)
		start := time.Now()
		if _, err := filt.ForecastFrom(o.slot, 3, observed, noise); err == nil {
			out = append(out, us(time.Since(start)))
		}
	}
	return out
}

// sample picks up to 200 successful ops of one kind, evenly spread.
func sample(ops []*opRec, kind string) []*opRec {
	var all []*opRec
	for _, o := range ops {
		if o.kind == kind && o.err == nil {
			all = append(all, o)
		}
	}
	const n = 200
	if len(all) <= n {
		return all
	}
	out := make([]*opRec, n)
	for i := range out {
		out[i] = all[i*len(all)/n]
	}
	return out
}
