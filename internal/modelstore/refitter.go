package modelstore

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/tslot"
)

// RefitterConfig tunes the background refit loop (`serve -refit`/`-alpha`).
type RefitterConfig struct {
	// Interval between refit attempts (default 5 minutes — one slot width).
	Interval time.Duration
	// Alpha is the exponential-forgetting weight a folded day carries
	// (stream.OnlineRTF); default 0.1 ≈ a 10-day sliding window.
	Alpha float64
}

// holdoutMod splits each slot's observed roads deterministically: roads with
// hash(slot, road) % holdoutMod == 0 are withheld from the fold and used as
// the gate's holdout set (≈25% holdout).
const holdoutMod = 4

// RefitReport describes one refit attempt.
type RefitReport struct {
	Published    bool       `json:"published"`
	Skipped      bool       `json:"skipped"` // no unfolded closed slot, or holdout < minHoldout
	Version      uint64     `json:"version,omitempty"`
	SlotsFolded  int        `json:"slots_folded"`
	RoadsFolded  int        `json:"roads_folded"`
	HoldoutObs   int        `json:"holdout_observations"`
	Gate         GateResult `json:"gate"`
	DurationMS   float64    `json:"duration_ms"`
	AttemptsUnix int64      `json:"attempted_at_unix"`
}

// Refitter periodically folds the robust per-slot aggregates of the
// Batcher's closed slots (core.Batcher.Closed) into a clone of the live
// model (exponential forgetting), runs the candidate through the manager's
// gate, and publishes + hot-swaps it on success. A refused candidate leaves
// the live model untouched and shows up in the manager's Rejected counter —
// the serving path can only ever move to a model the gate admitted. It only
// reads the collector: the reports it folds keep serving until the filter's
// walk ends their slot's day.
type Refitter struct {
	mgr *Manager
	b   *core.Batcher
	cfg RefitterConfig

	// runMu runs one refit at a time; folded maps each slot it published a
	// fold of to the slot's first report mark (stream.Collector.First) then,
	// so each slot-day is folded once.
	runMu  sync.Mutex
	folded map[tslot.Slot]int

	mu       sync.Mutex
	last     RefitReport
	attempts uint64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	started  bool
}

// NewRefitter wires a refitter over the Batcher's collector and filter; call
// Start to launch the background loop or RefitOnce to drive it manually.
func NewRefitter(mgr *Manager, b *core.Batcher, cfg RefitterConfig) (*Refitter, error) {
	if mgr == nil || b == nil {
		return nil, fmt.Errorf("modelstore: refitter needs a manager and a batcher")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Minute
	}
	if cfg.Alpha <= 0 || cfg.Alpha >= 1 {
		cfg.Alpha = 0.1
	}
	return &Refitter{
		mgr:    mgr,
		b:      b,
		cfg:    cfg,
		folded: make(map[tslot.Slot]int),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}, nil
}

// Start launches the background loop. Stop it with Stop; Start must be
// called at most once.
func (r *Refitter) Start() {
	r.mu.Lock()
	r.started = true
	r.mu.Unlock()
	go func() {
		defer close(r.done)
		ticker := time.NewTicker(r.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-ticker.C:
				r.RefitOnce() // errors land in Manager.Status().LastError
			}
		}
	}()
}

// Stop terminates the background loop and waits for it to exit. Safe to call
// multiple times and without a prior Start.
func (r *Refitter) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.mu.Lock()
	started := r.started
	r.mu.Unlock()
	if started {
		<-r.done
	}
}

// LastReport returns the most recent refit attempt's report and the total
// attempt count.
func (r *Refitter) LastReport() (RefitReport, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last, r.attempts
}

// holdoutRoad deterministically assigns a (slot, road) pair to the holdout
// split. Knuth multiplicative hashing keeps the split stable across runs and
// uncorrelated with road ids.
func holdoutRoad(t tslot.Slot, road, mod int) bool {
	h := uint64(road)*2654435761 + uint64(t)*40503
	return h%uint64(mod) == 0
}

// RefitOnce performs one fold→gate→publish→swap cycle synchronously and
// returns its report. Calls run one at a time. It folds each closed slot's
// current reports once, so the slot being served keeps its reports out of
// the fold until the filter leaves it, and a report that lands after its
// slot was folded is served but not folded. With no unfolded closed slot
// holding reports, or a holdout below minHoldout, it is a cheap no-op
// (Skipped=true) that leaves those slots to the next attempt.
func (r *Refitter) RefitOnce() (RefitReport, error) {
	r.runMu.Lock()
	defer r.runMu.Unlock()
	start := time.Now()
	rep := RefitReport{AttemptsUnix: start.Unix()}
	defer func() {
		rep.DurationMS = float64(time.Since(start).Microseconds()) / 1000
		r.mu.Lock()
		r.attempts++
		r.last = rep
		r.mu.Unlock()
	}()

	col := r.b.Collector()
	fold := make(map[tslot.Slot]map[int]float64)
	firsts := make(map[tslot.Slot]int)
	var holdout []HoldoutSample
	for _, t := range col.Slots() {
		first := col.First(t)
		if first == 0 || first == r.folded[t] || !r.b.Closed(t) {
			continue
		}
		obs := col.Observations(t)
		if len(obs) == 0 || col.First(t) != first {
			continue // the walk emptied the slot meanwhile
		}
		fSet := make(map[int]float64, len(obs))
		hSet := make(map[int]float64)
		for road, v := range obs {
			if holdoutRoad(t, road, holdoutMod) {
				hSet[road] = v
			} else {
				fSet[road] = v
			}
		}
		if len(fSet) == 0 { // tiny slot: everything landed in holdout
			fSet, hSet = hSet, nil
		}
		fold[t] = fSet
		firsts[t] = first
		rep.RoadsFolded += len(fSet)
		if len(hSet) > 0 {
			holdout = append(holdout, HoldoutSample{Slot: t, Speeds: hSet})
			rep.HoldoutObs += len(hSet)
		}
	}
	rep.SlotsFolded = len(fold)
	if len(fold) == 0 || rep.HoldoutObs < minHoldout {
		rep.Skipped = true
		return rep, nil
	}

	// Fold into a clone; the live model keeps serving untouched.
	cand := r.mgr.System().Model().Clone()
	online, err := stream.NewOnlineRTF(cand, r.cfg.Alpha)
	if err != nil {
		return rep, err
	}
	for t, obs := range fold {
		if err := online.Fold(t, obs); err != nil {
			return rep, fmt.Errorf("modelstore: refit fold slot %d: %w", t, err)
		}
	}

	info, gr, err := r.mgr.Publish(cand, Meta{Source: "refit"}, holdout)
	rep.Gate = gr
	if err != nil {
		return rep, err
	}
	rep.Published = true
	rep.Version = info.Version
	for t, first := range firsts {
		r.folded[t] = first
	}
	return rep, nil
}
