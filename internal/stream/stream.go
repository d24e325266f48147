// Package stream is the realtime ingestion layer a deployed CrowdRTSE needs
// around the offline-trained model: thread-safe collection of worker speed
// reports with outlier rejection, and online maintenance of the RTF
// parameters by exponential forgetting — so the model tracks slow drift
// (seasonality, roadworks) without periodic offline refits.
package stream

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rtf"
	"repro/internal/tslot"
)

// Report is one worker speed report.
type Report struct {
	Road  int
	Slot  tslot.Slot
	Speed float64
}

// Collector accumulates reports per (slot, road) and serves robust
// aggregates. Safe for concurrent use.
type Collector struct {
	nRoads int
	// MaxSpeed rejects implausible reports outright (km/h).
	MaxSpeed float64
	// OutlierK is the MAD multiplier: with ≥4 reports for a road+slot, a
	// report farther than OutlierK median-absolute-deviations from the
	// median is excluded from the aggregate.
	OutlierK float64

	mu      sync.RWMutex
	buckets map[tslot.Slot]map[int][]float64
	lastAdd time.Time  // wall time of the last accepted report
	total   int        // accepted reports since construction
	latest  tslot.Slot // slot of the most recent accepted report
	clock   obs.Clock

	// metrics optionally counts accepted/rejected reports (SetMetrics).
	metrics obs.StreamMetrics

	// horizon bounds memory: when > 0, any bucket whose cyclic slot distance
	// from the most recently reported slot exceeds it is evicted on Add.
	horizon        int
	evictedSlots   int
	evictedReports int
}

// NewCollector builds a collector for a network of nRoads roads.
func NewCollector(nRoads int) *Collector {
	return &Collector{
		nRoads:   nRoads,
		MaxSpeed: 160,
		OutlierK: 4,
		buckets:  make(map[tslot.Slot]map[int][]float64),
		clock:    obs.SystemClock(),
	}
}

// SetClock replaces the collector's time source (staleness tracking). A nil
// clock restores the system clock. Not safe to call concurrently with Add;
// set it at wiring time.
func (c *Collector) SetClock(clk obs.Clock) {
	if clk == nil {
		clk = obs.SystemClock()
	}
	c.mu.Lock()
	c.clock = clk
	c.mu.Unlock()
}

// SetMetrics attaches accepted/rejected counters to the collector. The
// instruments are nil-safe, so a zero StreamMetrics simply disables counting.
func (c *Collector) SetMetrics(m obs.StreamMetrics) {
	c.mu.Lock()
	c.metrics = m
	c.mu.Unlock()
}

// Add ingests one report. It returns an error for malformed reports; an
// error does not disturb previously ingested data.
func (c *Collector) Add(r Report) error {
	if err := c.validate(r); err != nil {
		c.mu.RLock()
		rejected := c.metrics.Rejected
		c.mu.RUnlock()
		rejected.Inc()
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	byRoad := c.buckets[r.Slot]
	if byRoad == nil {
		byRoad = make(map[int][]float64)
		c.buckets[r.Slot] = byRoad
	}
	byRoad[r.Road] = append(byRoad[r.Road], r.Speed)
	c.lastAdd = c.clock.Now()
	c.latest = r.Slot
	c.total++
	c.metrics.Accepted.Inc()
	c.evictStaleLocked()
	return nil
}

func (c *Collector) validate(r Report) error {
	if r.Road < 0 || r.Road >= c.nRoads {
		return fmt.Errorf("stream: road %d out of range [0,%d)", r.Road, c.nRoads)
	}
	if !r.Slot.Valid() {
		return fmt.Errorf("stream: invalid slot %d", r.Slot)
	}
	return c.CheckSpeed(r.Speed)
}

// CheckSpeed is the collector's plausibility rule for one speed: 0 ≤ v ≤
// MaxSpeed. Add rejects reports that break it; the server holds per-request
// observation overrides to the same rule.
func (c *Collector) CheckSpeed(v float64) error {
	if v < 0 || v > c.MaxSpeed || math.IsNaN(v) {
		return fmt.Errorf("stream: implausible speed %v", v)
	}
	return nil
}

// SetHorizon bounds the collector's memory to ±slots around the most
// recently reported slot: whenever a report arrives, per-(slot,road)
// accumulators whose cyclic distance from that report's slot exceeds the
// horizon are evicted. 0 (the default) disables eviction. A long-running
// server cycling through the day would otherwise accrete every report of
// every slot forever; with a horizon of H the working set is at most 2H+1
// slot buckets. Slots whose aggregates matter after they close should be
// folded (e.g. by the refitter) before they age out; tslot.PerDay/2−1 is the
// largest effective horizon.
func (c *Collector) SetHorizon(slots int) {
	if slots < 0 {
		slots = 0
	}
	c.mu.Lock()
	c.horizon = slots
	c.evictStaleLocked()
	c.mu.Unlock()
}

// Horizon returns the configured eviction horizon in slots (0 = unbounded).
func (c *Collector) Horizon() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.horizon
}

// Evicted returns how many slot buckets and how many individual reports the
// horizon policy has evicted since construction.
func (c *Collector) Evicted() (slots, reports int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.evictedSlots, c.evictedReports
}

// Slots returns the slots currently holding reports, ascending. The
// refitter uses it to enumerate fold candidates.
func (c *Collector) Slots() []tslot.Slot {
	c.mu.RLock()
	out := make([]tslot.Slot, 0, len(c.buckets))
	for t := range c.buckets {
		out = append(out, t)
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// evictStaleLocked drops buckets outside the horizon window around the most
// recent report's slot. Requires c.mu held for writing.
func (c *Collector) evictStaleLocked() {
	if c.horizon <= 0 || c.total == 0 {
		return
	}
	for t, byRoad := range c.buckets {
		if tslot.Dist(t, c.latest) <= c.horizon {
			continue
		}
		c.evictedSlots++
		for _, speeds := range byRoad {
			c.evictedReports += len(speeds)
		}
		delete(c.buckets, t)
	}
}

// LastReport returns the wall time of the last accepted report; ok is false
// when no report was ever accepted. Health endpoints use it to expose
// collector staleness.
func (c *Collector) LastReport() (t time.Time, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.lastAdd, c.total > 0
}

// TotalReports returns the number of reports accepted since construction
// (Reset does not decrease it).
func (c *Collector) TotalReports() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.total
}

// SlotCount returns the number of slots currently holding reports.
func (c *Collector) SlotCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.buckets)
}

// Count returns the number of reports held for (slot, road).
func (c *Collector) Count(t tslot.Slot, road int) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.buckets[t][road])
}

// Observations returns the robust per-road aggregates for slot t — the
// observation map GSP consumes. Roads whose reports were all rejected as
// outliers are omitted.
func (c *Collector) Observations(t tslot.Slot) map[int]float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[int]float64, len(c.buckets[t]))
	for road, speeds := range c.buckets[t] {
		if v, ok := robustMean(speeds, c.OutlierK); ok {
			out[road] = v
		}
	}
	return out
}

// Reset discards all reports for slot t (e.g. after the slot closes and its
// aggregates were folded into the online model).
func (c *Collector) Reset(t tslot.Slot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.buckets, t)
}

// robustMean averages the values after MAD-based outlier rejection. With
// fewer than 4 values it averages everything (too little data to call
// outliers). ok is false when every value was rejected (cannot happen with
// the median in the set, but kept for safety).
func robustMean(values []float64, k float64) (mean float64, ok bool) {
	if len(values) == 0 {
		return 0, false
	}
	if len(values) < 4 {
		var s float64
		for _, v := range values {
			s += v
		}
		return s / float64(len(values)), true
	}
	med := median(values)
	devs := make([]float64, len(values))
	for i, v := range values {
		devs[i] = math.Abs(v - med)
	}
	mad := median(devs)
	if mad < 1e-9 {
		mad = 1e-9
	}
	var s float64
	var n int
	for _, v := range values {
		if math.Abs(v-med) <= k*mad {
			s += v
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return s / float64(n), true
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// OnlineRTF maintains RTF parameters with exponential forgetting: each
// completed slot's observed speeds update μ (EW mean), σ (EW variance) and
// ρ (EW covariance) for the observed roads and the edges with both
// endpoints observed. The decay α is the weight of the new day — α = 1/N
// approximates an N-day sliding window.
type OnlineRTF struct {
	model *rtf.Model
	alpha float64
}

// NewOnlineRTF wraps a fitted model. alpha must lie in (0, 1).
func NewOnlineRTF(m *rtf.Model, alpha float64) (*OnlineRTF, error) {
	if m == nil {
		return nil, fmt.Errorf("stream: nil model")
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("stream: alpha %v outside (0,1)", alpha)
	}
	return &OnlineRTF{model: m, alpha: alpha}, nil
}

// Model returns the maintained model (shared, not a copy).
func (o *OnlineRTF) Model() *rtf.Model { return o.model }

// Fold updates the slot-t parameters from one day's observed speeds.
// Unobserved roads keep their parameters; an edge's ρ updates only when
// both endpoints were observed.
func (o *OnlineRTF) Fold(t tslot.Slot, observed map[int]float64) error {
	if !t.Valid() {
		return fmt.Errorf("stream: invalid slot %d", t)
	}
	m := o.model
	a := o.alpha
	for road, v := range observed {
		if road < 0 || road >= m.N() {
			return fmt.Errorf("stream: road %d out of range", road)
		}
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("stream: invalid speed %v for road %d", v, road)
		}
	}
	// Edge updates run first so the cross-deviations are measured against
	// the pre-update means (the standard EW covariance form).
	for _, e := range m.Edges() {
		vi, okI := observed[e[0]]
		vj, okJ := observed[e[1]]
		if !okI || !okJ {
			continue
		}
		// EW correlation via the same-day cross-deviation: blend the
		// current ρ toward the normalized product of today's deviations.
		di := (vi - m.Mu(t, e[0])) / m.Sigma(t, e[0])
		dj := (vj - m.Mu(t, e[1])) / m.Sigma(t, e[1])
		sample := clampRho(di * dj)
		m.SetRho(t, e[0], e[1], (1-a)*m.Rho(t, e[0], e[1])+a*sample)
	}
	for road, v := range observed {
		mu := m.Mu(t, road)
		sigma := m.Sigma(t, road)
		d := v - mu
		// EW mean and EW variance (West 1979 form).
		newMu := mu + a*d
		newVar := (1 - a) * (sigma*sigma + a*d*d)
		m.SetMu(t, road, newMu)
		m.SetSigma(t, road, math.Sqrt(newVar))
	}
	return nil
}

func clampRho(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
