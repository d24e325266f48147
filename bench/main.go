// Command bench is the serving benchmark: it builds the traffic-estimation
// system in-process, serves it on a loopback HTTP server, drives one
// workload's traffic at it, checks every answer and prints the metrics.
//
//	bash bench/run.sh --workload paper-dispatch --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --seed 1 --out runs.jsonl   # every workload in turn
//	bash bench/run.sh --compare A.jsonl B.jsonl
//
// Each run ends with one JSON line on standard output:
// {"correct","attempted","failed","metrics"}; the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. A human-readable report
// goes to standard error. See bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics printed with --trace 0 and --trace 1,
// in BENCHMARK.json order; every workload has each of them. extras apply to
// some workloads only: the report and --out carry them where they apply.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"}, {"lat_p50_ms", "ms"}, {"lat_tail_ms", "ms"}, {"throughput_ops_s", "ops/s"},
		{"live_heap_mb", "MB"}, {"estimate_mape", "%"}, {"interval_miss", "ratio"},
	}
	perLayer = []metricDef{
		{"server.self_us_p50", "us"}, {"server.resp_kb_per_op", "kB/op"}, {"server.non2xx", "count"},
		{"core.coalesce_ratio", "ratio"}, {"core.warm_start_ratio", "ratio"},
		{"gsp.runs_per_op", "count/op"}, {"gsp.sweeps_per_run", "count/run"}, {"gsp.us_per_run_p50", "us"},
		{"gsp.busy_ms_per_op", "ms/op"}, {"gsp.sweeps_saved_per_run", "count/run"}, {"gsp.aborted", "count"},
		{"corr.row_computes_per_op", "count/op"}, {"corr.hit_rate", "ratio"}, {"corr.resident_mb", "MB"},
		{"corr.evictions", "count"}, {"corr.inflight_waits", "count"},
		{"ocs.solves_per_op", "count/op"}, {"ocs.selected_per_solve", "count/solve"},
		{"stream.accepted", "count"}, {"stream.rejected", "count"}, {"stream.report_us_p50", "us"},
		{"temporal.predicts_per_kop", "count/kop"}, {"temporal.updates_per_kop", "count/kop"},
		{"go.alloc_mb_per_kop", "MB/kop"}, {"go.gc_per_kop", "count/kop"}, {"go.gc_pause_ms", "ms"},
	}
	extras = []metricDef{
		{"estimate_p50_ms", "ms"}, {"report_p50_ms", "ms"}, {"route_p50_ms", "ms"}, {"select_p50_ms", "ms"}, {"forecast_p50_ms", "ms"},
		{"eta_mape", "%"}, {"server.queue_wait_ms_p99", "ms"},
		{"corr.row_us_mean", "us"}, {"corr.busy_ms_per_op", "ms/op"}, {"ocs.us_per_solve_p50", "us"},
		{"router.plan_us_p50", "us"}, {"router.segments_per_route", "count/route"},
		{"temporal.forecast_us_p50", "us"},
	}
)

func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer, extras} {
		for _, m := range set {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("bench: unknown metric " + name)
}

// config is one run's settings.
type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	metroRoads int
	setups     int    // builds timed for setup_s
	traceDir   string // where traced runs write <workload>.trace.json
}

// header identifies a run.
type header struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	// HostRefUs and SetupHostRefUs are the host reference kernel's median
	// in the idle windows around the phases and before each set-up.
	HostRefUs      float64       `json:"host_ref_us"`
	SetupHostRefUs float64       `json:"setup_host_ref_us"`
	Phases         []phaseHeader `json:"phases"`
	// Valid is false when the open-loop generator ran later, at p99, than
	// the median op took: the schedule then did not hold.
	Valid bool `json:"valid"`
}

type phaseHeader struct {
	Name        string  `json:"name"`
	Loop        string  `json:"loop"`
	Clients     int     `json:"clients"`
	Ops         int     `json:"ops"`
	Seconds     float64 `json:"seconds"`
	GenLagP99Ms float64 `json:"gen.lag_p99_ms"`
}

// record is one run: what --out appends and --compare reads.
type record struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Header    header            `json:"header"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FirstErr  string            `json:"first_error,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Clock holds every scaled metric as the clock read it.
	Clock map[string]float64 `json:"clock"`
}

func (rec *record) set(name string, v float64) {
	rec.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

func main() {
	var (
		cfg     config
		trace   int
		out     string
		compare bool
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run, one of "+workloadNames()+"; all of them in turn when empty")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated traffic")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measured seconds (latency plus throughput phase), at most 60")
	flag.IntVar(&trace, "trace", 0, "1 traces every request and prints the per-layer metrics")
	flag.StringVar(&out, "out", "", "append the run's full record as one JSON line to this file")
	flag.BoolVar(&compare, "compare", false, "compare the runs recorded in two --out files: A.jsonl B.jsonl")
	flag.Parse()
	if compare {
		if flag.NArg() != 2 {
			fatalf("--compare takes two record files")
		}
		if err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if cfg.seconds <= 0 || cfg.seconds > 60 {
		fatalf("--seconds must be in (0, 60]")
	}
	cfg.trace = trace == 1
	cfg.metroRoads = 100_000
	cfg.setups = 5
	cfg.traceDir = "bench/out"

	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = strings.Split(workloadNames(), ", ")
	}
	correct := true
	for _, name := range names {
		cfg.workload = name
		rec, err := runWorkload(cfg)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		printReport(os.Stderr, rec)
		if out != "" {
			if err := appendRecord(out, rec); err != nil {
				fatalf("%v", err)
			}
		}
		printResult(rec)
		correct = correct && rec.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

// printResult writes the run's result line to standard output: the
// end-to-end metrics of an untraced run, the per-layer ones of a traced run.
func printResult(rec record) {
	set := endToEnd
	if rec.Trace {
		set = perLayer
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, make(map[string]metric, len(set))}
	for _, m := range set {
		line.Metrics[m.name] = rec.Metrics[m.name]
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(data))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runWorkload sets the system up, drives the latency and throughput phases,
// and computes every metric.
func runWorkload(cfg config) (record, error) {
	wl, err := findWorkload(cfg.workload)
	if err != nil {
		return record{}, err
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	conns := min(2, procs)

	var setupHost, runHost hostReading
	w, setups, err := setUp(wl, cfg, conns, &setupHost)
	if err != nil {
		return record{}, err
	}
	defer w.close()
	tr, err := newTraffic(wl, w, cfg.seed)
	if err != nil {
		return record{}, err
	}
	r := newRunner(wl, w, tr, conns, cfg.trace)
	defer r.close()
	if err := r.registerWorkers(); err != nil {
		return record{}, err
	}
	if err := r.sinceMidnight(); err != nil {
		return record{}, err
	}

	latDur := time.Duration(cfg.seconds * latShare * float64(time.Second))
	phases := []phase{
		{name: "latency", open: wl.rate > 0, clients: 1, dur: latDur, rate: wl.rate, slot: startSlot},
		{name: "throughput", clients: conns, dur: time.Duration(cfg.seconds*float64(time.Second)) - latDur,
			first: 1 << 20},
	}
	if phases[0].open {
		phases[0].clients = conns
	}
	// The host is read before, between and after the phases.
	runtime.GC()
	runHost.window(refWindow)
	before := readCounters(w.srv.Pipeline(), w.sys)
	heap := startSampler(250*time.Millisecond, liveHeapMB)
	r.t0 = time.Now()
	ops := make([][]*opRec, len(phases))
	for i := range phases {
		if i > 0 {
			runHost.window(refWindow)
			// The clock runs on from the slot after the previous phase's last.
			prev := phases[i-1]
			phases[i].slot = prev.slot.Add((len(ops[i-1]) + wl.perSlot - 1) / wl.perSlot)
		}
		phases[i].start = time.Since(r.t0)
		ops[i] = r.run(phases[i], i)
	}
	after := readCounters(w.srv.Pipeline(), w.sys)
	liveHeap := heap.finish()
	runHost.window(refWindow)

	rec := record{Workload: wl.name, Trace: cfg.trace, Metrics: map[string]metric{}}
	rec.Header = header{
		Commit: commit(), GoVersion: runtime.Version(), NProc: procs,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: cfg.seed, Valid: true,
		HostRefUs: runHost.medianUs(), SetupHostRefUs: setupHost.medianUs(),
	}
	rec.set("setup_s", quantile(setups, 0.5))
	rec.set("live_heap_mb", liveHeap)
	latencyMetrics(&rec, wl, phases, ops)
	opMetrics(&rec, ops)
	layerMetrics(&rec, before, after, float64(rec.Attempted), servingCalls(ops))
	if cfg.trace {
		if err := traceMetrics(&rec, cfg, wl, r, phases, ops); err != nil {
			return record{}, err
		}
	}
	rec.scaleTimes(runHost.scale(), setupHost.scale())
	return rec, nil
}

// scaleTimes brings every timing to the reference host: times are
// multiplied by the run's factor (set-up by the factor read during set-up)
// and rates divided by it. Clock keeps the values as measured.
func (rec *record) scaleTimes(run, setup float64) {
	rec.Clock = map[string]float64{}
	for name, m := range rec.Metrics {
		f := run
		if name == "setup_s" {
			f = setup
		}
		switch m.Unit {
		case "s", "ms", "us", "ms/op":
		case "ops/s":
			f = 1 / f
		default:
			continue
		}
		rec.Clock[name] = m.Value
		m.Value *= f
		rec.Metrics[name] = m
	}
}

// setUp times cfg.setups builds, each from building the network to the
// first successful estimate. The last build serves the run.
func setUp(wl workload, cfg config, conns int, host *hostReading) (w *world, secs []float64, err error) {
	for i := 0; i < cfg.setups; i++ {
		if w != nil {
			w.close()
		}
		runtime.GC()
		host.window(refWindow / 3)
		start := time.Now()
		if w, err = buildWorld(wl, cfg.metroRoads, cfg.trace); err != nil {
			return nil, nil, err
		}
		first := newRunner(wl, w, &traffic{}, conns, false)
		err = first.estimate(&opRec{idx: -1}, startSlot, []int{0})
		first.close()
		if err != nil {
			w.close()
			return nil, nil, fmt.Errorf("first estimate: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return w, secs, nil
}

// latencyMetrics reads the latency phase: op latencies, per-endpoint call
// times and the generator's lag; and the throughput phase's rate.
func latencyMetrics(rec *record, wl workload, phases []phase, ops [][]*opRec) {
	var lats, queue, lag []float64
	calls := map[string][]float64{}
	for _, o := range ops[0] {
		if o.err != nil {
			continue
		}
		lats = append(lats, ms(o.latency(phases[0].open)))
		queue = append(queue, ms(o.sent-o.due))
		lag = append(lag, ms(o.lag))
		for _, c := range o.calls {
			calls[c.route] = append(calls[c.route], ms(c.dur))
		}
	}
	rec.set("lat_p50_ms", quantile(lats, 0.5))
	rec.set("lat_tail_ms", quantile(lats, wl.tailQ))
	for _, route := range []string{"estimate", "report", "route", "select", "forecast"} {
		if len(calls[route]) > 0 {
			rec.set(route+"_p50_ms", quantile(calls[route], 0.5))
		}
	}
	for i, p := range phases {
		ph := phaseHeader{Name: p.name, Loop: "closed", Clients: p.clients, Ops: len(ops[i]),
			Seconds: p.dur.Seconds()}
		if p.open {
			ph.Loop = fmt.Sprintf("open %g ops/s", p.rate)
			ph.GenLagP99Ms = quantile(lag, 0.99)
			rec.Header.Valid = ph.GenLagP99Ms <= rec.Metrics["lat_p50_ms"].Value
			rec.set("server.queue_wait_ms_p99", quantile(queue, 0.99))
		}
		rec.Header.Phases = append(rec.Header.Phases, ph)
	}

	// Ops completed per second of the closed loop, up to its last completion.
	thr := phases[1]
	var done int
	last := thr.start
	for _, o := range ops[1] {
		if o.err == nil {
			done++
			last = max(last, o.done)
		}
	}
	rec.set("throughput_ops_s", ratio(float64(done), (last-thr.start).Seconds()))
}

// opMetrics counts every op of both phases: correctness, answer quality and
// the client's view of the server.
func opMetrics(rec *record, ops [][]*opRec) {
	var estErr, estN, estInside, etaErr, routes, segs, respBytes, non2xx float64
	for _, phaseOps := range ops {
		for _, o := range phaseOps {
			rec.Attempted++
			if o.err != nil {
				rec.Failed++
				if rec.FirstErr == "" {
					rec.FirstErr = fmt.Sprintf("op %d (%s): %v", o.idx, o.kind, o.err)
				}
			}
			estErr += o.estErr
			estN += float64(o.estN)
			estInside += float64(o.estInside)
			if o.routeSegs > 0 {
				routes++
				segs += float64(o.routeSegs)
				etaErr += o.etaErr
			}
			for _, c := range o.calls {
				respBytes += float64(c.bytes)
				if c.status/100 != 2 {
					non2xx++
				}
			}
		}
	}
	rec.Correct = rec.Failed == 0
	rec.set("estimate_mape", 100*ratio(estErr, estN))
	rec.set("interval_miss", math.Abs(ratio(estInside, estN)-0.9))
	if routes > 0 {
		rec.set("eta_mape", 100*etaErr/routes)
		rec.set("router.segments_per_route", segs/routes)
	}
	rec.set("server.resp_kb_per_op", ratio(respBytes/1024, float64(rec.Attempted)))
	rec.set("server.non2xx", non2xx)
}

// servingCalls counts the estimate, route and select calls: the calls the
// Batcher can coalesce.
func servingCalls(ops [][]*opRec) float64 {
	var n float64
	for _, phaseOps := range ops {
		for _, o := range phaseOps {
			for _, c := range o.calls {
				switch c.route {
				case "estimate", "route", "select":
					n++
				}
			}
		}
	}
	return n
}

// layerMetrics turns two counter readings into the per-layer counts.
func layerMetrics(rec *record, before, after map[string]float64, nOps, serving float64) {
	d := func(k string) float64 { return after[k] - before[k] }
	rec.set("core.coalesce_ratio", ratio(d("coalesced"), serving))
	rec.set("core.warm_start_ratio", ratio(d("warm_starts"), d("gsp_runs")))
	rec.set("gsp.runs_per_op", ratio(d("gsp_runs"), nOps))
	rec.set("gsp.sweeps_per_run", ratio(d("sweeps"), d("gsp_runs")))
	rec.set("gsp.busy_ms_per_op", ratio(d("gsp_ms"), nOps))
	rec.set("gsp.sweeps_saved_per_run", ratio(d("sweeps_saved"), d("gsp_runs")))
	rec.set("gsp.aborted", d("aborted"))
	rec.set("corr.row_computes_per_op", ratio(d("rows"), nOps))
	if d("rows") > 0 {
		rec.set("corr.row_us_mean", 1000*d("row_ms")/d("rows"))
		rec.set("corr.busy_ms_per_op", d("row_ms")/nOps)
	}
	rec.set("corr.hit_rate", ratio(d("hits"), d("hits")+d("misses")))
	rec.set("corr.resident_mb", after["resident_mb"])
	rec.set("corr.evictions", d("evictions"))
	rec.set("corr.inflight_waits", d("inflight"))
	rec.set("ocs.solves_per_op", ratio(d("solves"), nOps))
	rec.set("ocs.selected_per_solve", ratio(d("selected"), d("solves")))
	rec.set("stream.accepted", d("accepted"))
	rec.set("stream.rejected", d("rejected"))
	rec.set("temporal.predicts_per_kop", 1000*ratio(d("predicts"), nOps))
	rec.set("temporal.updates_per_kop", 1000*ratio(d("updates"), nOps))
	rec.set("go.alloc_mb_per_kop", 1000*ratio(d("alloc_mb"), nOps))
	rec.set("go.gc_per_kop", 1000*ratio(d("gcs"), nOps))
	rec.set("go.gc_pause_ms", d("pause_ms"))
}

// traceMetrics builds the span trees of a traced run, writes the trace file
// and sets the metrics that come from spans and from timing the router and
// the temporal filter directly on each phase's inputs.
func traceMetrics(rec *record, cfg config, wl workload, r *runner, phases []phase, ops [][]*opRec) error {
	var all []*opRec
	var planUs, forecastUs []float64
	for _, phaseOps := range ops {
		all = append(all, phaseOps...)
		planUs = append(planUs, timeRouter(r, phaseOps)...)
		forecastUs = append(forecastUs, timeForecast(r, phaseOps)...)
	}
	rep := summarize(wl, cfg.seed, all, r.w.sink, phases[0].open)
	rec.set("server.self_us_p50", rep.ServerSelfUsP50)
	rec.set("gsp.us_per_run_p50", rep.selfP50("gsp"))
	rec.set("stream.report_us_p50", rep.selfP50("server.report"))
	if v := rep.selfP50("ocs_select"); v > 0 {
		rec.set("ocs.us_per_solve_p50", v)
	}
	if len(planUs) > 0 {
		rec.set("router.plan_us_p50", quantile(planUs, 0.5))
	}
	if len(forecastUs) > 0 {
		rec.set("temporal.forecast_us_p50", quantile(forecastUs, 0.5))
	}
	fmt.Fprintf(os.Stderr, "trace: blocking path p50 %.3f ms vs lat_p50 %.3f ms (ratio %.3f); %d spans\n",
		rep.BlockingPath.PathP50Ms, rep.BlockingPath.LatP50Ms, rep.BlockingPath.Ratio, len(rep.Spans))
	return writeTrace(cfg.traceDir, rep)
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git checkout.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// printReport writes the human-readable report: header, then every metric.
func printReport(f *os.File, rec record) {
	h := rec.Header
	fmt.Fprintf(f, "workload %s  seed %d  trace %v  commit %s  %s  nproc %d  GOMAXPROCS %d\n",
		rec.Workload, h.Seed, rec.Trace, h.Commit, h.GoVersion, h.NProc, h.GOMAXPROCS)
	for _, p := range h.Phases {
		fmt.Fprintf(f, "  phase %-10s %-18s clients %d  %5d ops in %.1fs  gen.lag_p99_ms %.3f\n",
			p.Name, p.Loop, p.Clients, p.Ops, p.Seconds, p.GenLagP99Ms)
	}
	if !h.Valid {
		fmt.Fprintln(f, "  INVALID: the open-loop generator's p99 lag exceeds lat_p50_ms")
	}
	fmt.Fprintf(f, "  correct %v  attempted %d  failed %d\n", rec.Correct, rec.Attempted, rec.Failed)
	if rec.FirstErr != "" {
		fmt.Fprintf(f, "  first error: %s\n", rec.FirstErr)
	}
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "  host reference: %.1f µs around the phases, %.1f µs before set-up (idle host %.0f µs)\n",
		h.HostRefUs, h.SetupHostRefUs, refUs)
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Fprintf(f, "  %-28s %14.4f %-11s", name, m.Value, m.Unit)
		if clock, ok := rec.Clock[name]; ok {
			fmt.Fprintf(f, " (clock %.4f)", clock)
		}
		fmt.Fprintln(f)
	}
}

func appendRecord(path string, rec record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(data, '\n'))
	return errors.Join(werr, f.Close())
}
