// Package stream is the realtime ingestion layer a deployed CrowdRTSE needs
// around the offline-trained model: thread-safe collection of worker speed
// reports with outlier rejection, and online maintenance of the RTF
// parameters by exponential forgetting — so the model tracks slow drift
// (seasonality, roadworks) without periodic offline refits. The collector
// does not decide how long a slot's reports live: the serving report walk
// (core.Batcher.Report) empties each slot as its day ends.
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

const (
	// maxSpeed rejects implausible reports outright (km/h).
	maxSpeed = 160
	// outlierK is the MAD multiplier: with ≥4 reports for a road+slot, a
	// report farther than outlierK median-absolute-deviations from the
	// median is excluded from the aggregate.
	outlierK = 4
)

// Collector accumulates reports per (slot, road) and serves robust
// aggregates. Safe for concurrent use; it keeps a slot's reports until Reset.
type Collector struct {
	nRoads int

	mu      sync.RWMutex
	buckets map[tslot.Slot]*bucket
	lastAdd time.Time // wall time of the last accepted report
	total   int       // accepted reports since construction
	clock   obs.Clock

	// metrics optionally counts accepted/rejected reports (SetMetrics).
	metrics obs.StreamMetrics
}

// bucket is one slot's held reports.
type bucket struct {
	byRoad map[int][]float64
	// first and mark are the collector's total at the slot's first and
	// latest held report (First, Mark).
	first, mark int
}

// NewCollector builds a collector for a network of nRoads roads.
func NewCollector(nRoads int) *Collector {
	return &Collector{
		nRoads:  nRoads,
		buckets: make(map[tslot.Slot]*bucket),
		clock:   obs.SystemClock(),
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

// Now reads the clock that stamps accepted reports (LastReport), by which
// core.Batcher.Report tells a late report from a later day's.
func (c *Collector) Now() time.Time {
	c.mu.RLock()
	clk := c.clock
	c.mu.RUnlock()
	return clk.Now()
}

// SetMetrics attaches accepted/rejected counters to the collector. The
// instruments are nil-safe, so a zero StreamMetrics simply disables counting.
func (c *Collector) SetMetrics(m obs.StreamMetrics) {
	c.mu.Lock()
	c.metrics = m
	c.mu.Unlock()
}

// Check applies Add's rules to r without storing it: the road must be on
// the network, the slot valid and the speed plausible. A report that fails
// counts as rejected.
func (c *Collector) Check(r Report) error {
	var err error
	switch {
	case r.Road < 0 || r.Road >= c.nRoads:
		err = fmt.Errorf("stream: road %d out of range [0,%d)", r.Road, c.nRoads)
	case !r.Slot.Valid():
		err = fmt.Errorf("stream: invalid slot %d", r.Slot)
	default:
		err = CheckSpeed(r.Speed)
	}
	if err != nil {
		c.mu.RLock()
		rejected := c.metrics.Rejected
		c.mu.RUnlock()
		rejected.Inc()
	}
	return err
}

// Add ingests one report. It returns Check's error for a malformed report;
// an error does not disturb previously ingested data.
func (c *Collector) Add(r Report) error {
	if err := c.Check(r); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total++
	b := c.buckets[r.Slot]
	if b == nil {
		b = &bucket{byRoad: make(map[int][]float64), first: c.total}
		c.buckets[r.Slot] = b
	}
	b.byRoad[r.Road] = append(b.byRoad[r.Road], r.Speed)
	b.mark = c.total
	c.lastAdd = c.clock.Now()
	c.metrics.Accepted.Inc()
	return nil
}

// CheckSpeed is the collector's plausibility rule for one speed: 0 ≤ v ≤
// 160 km/h. Add rejects reports that break it; the server holds
// per-request observation overrides to the same rule.
func CheckSpeed(v float64) error {
	if v < 0 || v > maxSpeed || math.IsNaN(v) {
		return fmt.Errorf("stream: implausible speed %v", v)
	}
	return nil
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

// Mark returns slot t's report mark: TotalReports as of the slot's latest
// accepted report, or 0 while the slot holds none (after Reset too). The
// total only grows, so a non-zero mark is never repeated.
func (c *Collector) Mark(t tslot.Slot) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if b := c.buckets[t]; b != nil {
		return b.mark
	}
	return 0
}

// First returns TotalReports as of slot t's first held report, or 0 while
// the slot holds none. It names the reports the slot has held since its
// last Reset: it changes only when the slot is emptied and refilled, and
// never repeats a non-zero value.
func (c *Collector) First(t tslot.Slot) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if b := c.buckets[t]; b != nil {
		return b.first
	}
	return 0
}

// Count returns the number of reports held for (slot, road).
func (c *Collector) Count(t tslot.Slot, road int) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if b := c.buckets[t]; b != nil {
		return len(b.byRoad[road])
	}
	return 0
}

// Observations returns the robust per-road aggregates for slot t — the
// observation map GSP consumes. Roads whose reports were all rejected as
// outliers are omitted.
func (c *Collector) Observations(t tslot.Slot) map[int]float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	b := c.buckets[t]
	if b == nil {
		return map[int]float64{}
	}
	out := make(map[int]float64, len(b.byRoad))
	for road, speeds := range b.byRoad {
		if v, ok := robustMean(speeds, outlierK); ok {
			out[road] = v
		}
	}
	return out
}

// Reset discards all reports for slot t. core.Batcher.Report calls it as
// its filter walk ends the slot's day.
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
