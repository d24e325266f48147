package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tslot"
)

// callRec is one HTTP call as the client saw it.
type callRec struct {
	route  string
	id     string // X-Request-ID in traced runs
	start  time.Duration
	dur    time.Duration
	bytes  int
	status int
}

// opRec is one operation: its schedule, its calls, and how its answers
// scored against the truth.
type opRec struct {
	idx       int
	kind      string
	phase     int
	slot      tslot.Slot
	due, sent time.Duration // offsets from the run start
	done      time.Duration
	lag       time.Duration // how late the generator released the op
	calls     []callRec
	err       error
	src, dst  int     // route endpoints, for the router timings
	estErr    float64 // Σ |estimate − truth| / truth over the estimated roads
	estN      int
	estInside int     // truths inside the served 90% interval
	etaErr    float64 // |ETA − truth ETA| / truth ETA of a route
	routeSegs int
}

// latency is what the user waited: from when an open-loop op was due, or
// from when a closed-loop op was sent.
func (r *opRec) latency(open bool) time.Duration {
	if open {
		return r.done - r.due
	}
	return r.done - r.sent
}

// runner drives one workload's traffic against one world.
type runner struct {
	wl     workload
	w      *world
	tr     *traffic
	client *http.Client
	base   string
	traced bool
	t0     time.Time

	workerSet map[int]bool
}

func newRunner(wl workload, w *world, tr *traffic, conns int, traced bool) *runner {
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	r := &runner{
		wl: wl, w: w, tr: tr, traced: traced,
		client:    &http.Client{Transport: transport, Timeout: 60 * time.Second},
		base:      w.hs.URL,
		workerSet: make(map[int]bool, len(w.workers)),
	}
	for _, road := range w.workers {
		r.workerSet[road] = true
	}
	return r
}

func (r *runner) close() { r.client.CloseIdleConnections() }

// registerWorkers places the traffic's crowd on the server.
func (r *runner) registerWorkers() error {
	type worker struct {
		Road int `json:"road"`
	}
	body := struct {
		Workers []worker `json:"workers"`
	}{}
	for _, road := range r.w.workers {
		body.Workers = append(body.Workers, worker{road})
	}
	var resp struct {
		Workers *int `json:"workers"`
	}
	rec := &opRec{idx: -1}
	if err := r.call(rec, "workers", body, &resp); err != nil {
		return err
	}
	if resp.Workers == nil || *resp.Workers != len(r.w.workers) {
		return fmt.Errorf("workers: registered %v of %d", resp.Workers, len(r.w.workers))
	}
	return nil
}

// sinceMidnight brings the server to where one that has served since
// midnight would be at startSlot: an estimate every filterReach slots walks
// the temporal filter, which starts at slot 0, up to the start of the run.
func (r *runner) sinceMidnight() error {
	for t := tslot.Slot(filterReach); t <= startSlot; t += filterReach {
		if err := r.estimate(&opRec{idx: -1}, t, []int{0}); err != nil {
			return fmt.Errorf("estimate at slot %d: %w", t, err)
		}
	}
	return nil
}

// call POSTs req to /v1/<route>, records the call and decodes a 2xx answer
// into resp. Any other status is an error. In a traced run the calls of
// scheduled ops (idx ≥ 0) carry the request ID <workload>-<op>-<call>.
func (r *runner) call(rec *opRec, route string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequest(http.MethodPost, r.base+"/v1/"+route, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	c := callRec{route: route, start: time.Since(r.t0)}
	if r.traced && rec.idx >= 0 {
		c.id = r.wl.name + "-" + strconv.Itoa(rec.idx) + "-" + strconv.Itoa(len(rec.calls))
		hreq.Header.Set("X-Request-ID", c.id)
	}
	res, err := r.client.Do(hreq)
	if err == nil {
		var data []byte
		data, err = io.ReadAll(res.Body)
		res.Body.Close()
		c.status, c.bytes = res.StatusCode, len(data)
		if err == nil && res.StatusCode/100 != 2 {
			err = fmt.Errorf("%s: status %d: %s", route, res.StatusCode, bytes.TrimSpace(data))
		}
		if err == nil {
			err = json.Unmarshal(data, resp)
		}
	}
	c.dur = time.Since(r.t0) - c.start
	rec.calls = append(rec.calls, c)
	if err != nil {
		return fmt.Errorf("%s: %w", route, err)
	}
	return nil
}

// exec runs op o at slot t and validates every answer.
func (r *runner) exec(rec *opRec, o op) error {
	t := rec.slot
	switch o.Kind {
	case kindDispatch:
		sel, err := r.selectRoads(rec, t, o.Roads)
		if err != nil {
			return err
		}
		for _, road := range sel {
			if err := r.report(rec, t, road, o.Noise); err != nil {
				return err
			}
		}
		return r.estimate(rec, t, o.Roads)
	case kindEstimate:
		return r.estimate(rec, t, o.Roads)
	case kindRoute:
		return r.route(rec, t, o.Src, o.Dst)
	case kindForecast:
		return r.forecast(rec, t, o.Roads)
	case kindReport:
		return r.report(rec, t, o.Road, o.Noise)
	}
	return fmt.Errorf("unknown op kind %q", o.Kind)
}

type interval struct {
	Lo *float64 `json:"lo"`
	Hi *float64 `json:"hi"`
}

// contains checks lo ≤ v ≤ hi with every bound present and finite.
func (iv *interval) contains(v float64) error {
	if iv == nil || iv.Lo == nil || iv.Hi == nil {
		return fmt.Errorf("interval missing")
	}
	if !finite(*iv.Lo) || !finite(*iv.Hi) || *iv.Lo > v || v > *iv.Hi {
		return fmt.Errorf("interval [%v, %v] does not hold %v", *iv.Lo, *iv.Hi, v)
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func positive(name string, v *float64) error {
	if v == nil {
		return fmt.Errorf("%s missing", name)
	}
	if !finite(*v) || *v <= 0 {
		return fmt.Errorf("%s = %v, want a positive finite number", name, *v)
	}
	return nil
}

func sameInt(name string, got *int, want int) error {
	if got == nil || *got != want {
		return fmt.Errorf("%s = %v, want %d", name, got, want)
	}
	return nil
}

func (r *runner) selectRoads(rec *opRec, t tslot.Slot, roads []int) ([]int, error) {
	req := map[string]any{"slot": int(t), "roads": roads, "budget": selectBudget,
		"theta": selectTheta, "selector": "Hybrid"}
	var resp struct {
		Roads []int    `json:"roads"`
		Value *float64 `json:"value"`
		Cost  *int     `json:"cost"`
	}
	if err := r.call(rec, "select", req, &resp); err != nil {
		return nil, err
	}
	if len(resp.Roads) == 0 || resp.Value == nil || !finite(*resp.Value) || resp.Cost == nil {
		return nil, fmt.Errorf("select: incomplete answer")
	}
	if *resp.Cost < 1 || *resp.Cost > selectBudget {
		return nil, fmt.Errorf("select: cost %d outside [1, %d]", *resp.Cost, selectBudget)
	}
	seen := make(map[int]bool, len(resp.Roads))
	for _, road := range resp.Roads {
		if !r.workerSet[road] || seen[road] {
			return nil, fmt.Errorf("select: road %d is not a distinct worker road", road)
		}
		seen[road] = true
	}
	return resp.Roads, nil
}

func (r *runner) report(rec *opRec, t tslot.Slot, road int, noise uint64) error {
	req := map[string]any{"road": road, "slot": int(t), "speed": r.w.reportSpeed(t, road, noise)}
	var resp struct {
		Answers *int `json:"answers"`
	}
	if err := r.call(rec, "report", req, &resp); err != nil {
		return err
	}
	if resp.Answers == nil || *resp.Answers < 1 {
		return fmt.Errorf("report: answers = %v", resp.Answers)
	}
	return nil
}

func (r *runner) estimate(rec *opRec, t tslot.Slot, roads []int) error {
	var resp struct {
		Slot       *int                `json:"slot"`
		Estimates  map[string]float64  `json:"estimates"`
		Level      *float64            `json:"level"`
		Intervals  map[string]interval `json:"intervals"`
		Provenance map[string]string   `json:"provenance"`
	}
	if err := r.call(rec, "estimate", map[string]any{"slot": int(t), "roads": roads}, &resp); err != nil {
		return err
	}
	if err := sameInt("estimate: slot", resp.Slot, int(t)); err != nil {
		return err
	}
	if resp.Level == nil || *resp.Level != 0.9 {
		return fmt.Errorf("estimate: level %v, want 0.9", resp.Level)
	}
	for _, road := range roads {
		key := strconv.Itoa(road)
		v, ok := resp.Estimates[key]
		if !ok || !finite(v) || v <= 0 {
			return fmt.Errorf("estimate: road %d speed %v (present %v)", road, v, ok)
		}
		iv := resp.Intervals[key]
		if err := iv.contains(v); err != nil {
			return fmt.Errorf("estimate: road %d: %w", road, err)
		}
		switch resp.Provenance[key] {
		case "observed", "fused", "prior":
		default:
			return fmt.Errorf("estimate: road %d provenance %q", road, resp.Provenance[key])
		}
		truth := r.w.truth(t, road)
		rec.estErr += math.Abs(v-truth) / truth
		rec.estN++
		if *iv.Lo <= truth && truth <= *iv.Hi {
			rec.estInside++
		}
	}
	return nil
}

func (r *runner) route(rec *opRec, t tslot.Slot, src, dst int) error {
	type segment struct {
		Road    *int     `json:"road"`
		Slot    *int     `json:"slot"`
		Speed   *float64 `json:"speed"`
		SpeedSD *float64 `json:"speed_sd"`
		Minutes *float64 `json:"minutes"`
	}
	var resp struct {
		Slot       *int      `json:"slot"`
		Roads      []int     `json:"roads"`
		ETAMinutes *float64  `json:"eta_minutes"`
		ETASD      *float64  `json:"eta_sd"`
		Interval   *interval `json:"interval"`
		Segments   []segment `json:"segments"`
	}
	rec.src, rec.dst = src, dst
	req := map[string]any{"slot": int(t), "src": src, "dst": dst, "horizon": r.wl.horizon}
	if err := r.call(rec, "route", req, &resp); err != nil {
		return err
	}
	if err := sameInt("route: slot", resp.Slot, int(t)); err != nil {
		return err
	}
	roads := resp.Roads
	if len(roads) < 2 || roads[0] != src || roads[len(roads)-1] != dst {
		return fmt.Errorf("route: path %v does not run %d→%d", roads, src, dst)
	}
	for i := 1; i < len(roads); i++ {
		if !r.w.net.Adjacent(roads[i-1], roads[i]) {
			return fmt.Errorf("route: hop %d→%d is not a graph edge", roads[i-1], roads[i])
		}
	}
	if len(resp.Segments) != len(roads)-1 {
		return fmt.Errorf("route: %d segments for %d roads", len(resp.Segments), len(roads))
	}
	if err := positive("route: eta_minutes", resp.ETAMinutes); err != nil {
		return err
	}
	if resp.ETASD == nil || !finite(*resp.ETASD) || *resp.ETASD < 0 {
		return fmt.Errorf("route: eta_sd %v", resp.ETASD)
	}
	if err := resp.Interval.contains(*resp.ETAMinutes); err != nil {
		return fmt.Errorf("route: %w", err)
	}
	var sum float64
	for i, seg := range resp.Segments {
		if err := sameInt("route: segment road", seg.Road, roads[i+1]); err != nil {
			return err
		}
		if seg.Slot == nil || seg.SpeedSD == nil || !finite(*seg.SpeedSD) || *seg.SpeedSD < 0 {
			return fmt.Errorf("route: segment %d incomplete", i)
		}
		if err := positive("route: segment speed", seg.Speed); err != nil {
			return err
		}
		if err := positive("route: segment minutes", seg.Minutes); err != nil {
			return err
		}
		sum += *seg.Minutes
	}
	if math.Abs(sum-*resp.ETAMinutes) > 1e-6*math.Max(1, sum) {
		return fmt.Errorf("route: segments sum to %v minutes, eta is %v", sum, *resp.ETAMinutes)
	}
	truth := r.truthETA(t, roads)
	rec.etaErr = math.Abs(*resp.ETAMinutes-truth) / truth
	rec.routeSegs = len(resp.Segments)
	return nil
}

// truthETA integrates the true speeds along a path departing at the start of
// slot t: each road after the first is priced at the slot its entry falls in.
func (r *runner) truthETA(t tslot.Slot, roads []int) float64 {
	depart := float64(t.StartMinute())
	now := depart
	for _, road := range roads[1:] {
		at := tslot.OfMinute(int(now) % (24 * 60))
		now += 60 * r.w.net.Road(road).LengthKM / r.w.truth(at, road)
	}
	return now - depart
}

func (r *runner) forecast(rec *opRec, t tslot.Slot, roads []int) error {
	const horizon = 3
	type step struct {
		Step      *int                `json:"step"`
		Slot      *int                `json:"slot"`
		Speeds    map[string]float64  `json:"speeds"`
		SD        map[string]float64  `json:"sd"`
		Intervals map[string]interval `json:"intervals"`
	}
	var resp struct {
		Slot    *int   `json:"slot"`
		Horizon *int   `json:"horizon"`
		Steps   []step `json:"steps"`
	}
	req := map[string]any{"slot": int(t), "roads": roads, "horizon": horizon}
	if err := r.call(rec, "forecast", req, &resp); err != nil {
		return err
	}
	if err := sameInt("forecast: slot", resp.Slot, int(t)); err != nil {
		return err
	}
	if err := sameInt("forecast: horizon", resp.Horizon, horizon); err != nil {
		return err
	}
	if len(resp.Steps) != horizon {
		return fmt.Errorf("forecast: %d steps, want %d", len(resp.Steps), horizon)
	}
	prevSD := make(map[string]float64, len(roads))
	for i, st := range resp.Steps {
		if err := sameInt("forecast: step", st.Step, i+1); err != nil {
			return err
		}
		if err := sameInt("forecast: step slot", st.Slot, int(t.Add(i+1))); err != nil {
			return err
		}
		for _, road := range roads {
			key := strconv.Itoa(road)
			v, ok := st.Speeds[key]
			sd, okSD := st.SD[key]
			if !ok || !okSD || !finite(v) || v <= 0 || !finite(sd) || sd < 0 {
				return fmt.Errorf("forecast: step %d road %d speed %v sd %v", i+1, road, v, sd)
			}
			if sd < prevSD[key] {
				return fmt.Errorf("forecast: road %d SD shrinks from %v to %v at step %d", road, prevSD[key], sd, i+1)
			}
			prevSD[key] = sd
			iv := st.Intervals[key]
			if err := iv.contains(v); err != nil {
				return fmt.Errorf("forecast: step %d road %d: %w", i+1, road, err)
			}
		}
	}
	return nil
}

// phase is one measured stretch of a run.
type phase struct {
	name    string
	open    bool          // open loop at rate; else closed loop
	clients int           // closed-loop clients, or open-loop senders
	start   time.Duration // offset from the run start
	dur     time.Duration
	rate    float64 // open loop: the phase's k-th op is due k/rate after start
	first   int     // traffic index of the phase's first op
	slot    tslot.Slot
}

// run drives one phase to completion and returns its ops.
func (r *runner) run(p phase, idx int) []*opRec {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		recs []*opRec
	)
	n := int(p.rate * p.dur.Seconds())
	due := func(k int) time.Duration {
		return p.start + time.Duration(float64(k)/p.rate*float64(time.Second))
	}
	next := atomic.Int64{}
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				rec := &opRec{idx: p.first + k, phase: idx}
				if p.open {
					if k >= n {
						return
					}
					rec.due = due(k)
					claimed := time.Since(r.t0)
					if wait := rec.due - claimed; wait > 0 {
						time.Sleep(wait)
					}
					rec.sent = time.Since(r.t0)
					rec.lag = rec.sent - max(rec.due, claimed)
				} else {
					rec.sent = time.Since(r.t0)
					if rec.sent >= p.start+p.dur {
						return
					}
					rec.due = rec.sent
				}
				rec.slot = p.slot.Add(k / r.wl.perSlot)
				o := r.tr.op(rec.idx)
				// A worker reports as each slot opens, so that a mix with
				// reports never serves a stretch of a slot from no
				// observations at all (which answers from the prior).
				if k%r.wl.perSlot == 0 && r.wl.reports() {
					o.Kind = kindReport
				}
				rec.kind = o.Kind
				rec.err = r.exec(rec, o)
				rec.done = time.Since(r.t0)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs
}
