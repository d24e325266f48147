package modelstore

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/rtf"
	"repro/internal/tslot"
)

// Manager ties a serving core.System to a snapshot Store and the validation
// gate: every model that reaches the serving path goes candidate → gate →
// store publication → hot-swap, and every rollback goes store → verify →
// hot-swap. It is the single writer of the system's model; concurrent
// Publish/Rollback/Reload calls serialize on an internal mutex while queries
// continue lock-free on the RCU state.
type Manager struct {
	sys   *core.System
	store *Store
	net   *network.Network
	topo  uint64

	mu     sync.Mutex // serializes model mutations
	stat   Status
	statMu sync.Mutex
}

// Status is the lifecycle counter block exported on /v1/healthz and
// /v1/model.
type Status struct {
	CurrentVersion  uint64     `json:"current_version"`  // store version serving now (0 = unpublished seed model)
	ModelGeneration uint64     `json:"model_generation"` // core.System swap generation
	Swaps           uint64     `json:"swaps"`            // successful hot-swaps (publishes + rollbacks + reloads)
	Published       uint64     `json:"published"`        // candidates that passed the gate and went live
	Rejected        uint64     `json:"rejected"`         // candidates the gate refused
	Rollbacks       uint64     `json:"rollbacks"`        // completed rollbacks
	LastSwapUnix    int64      `json:"last_swap_unix,omitempty"`
	LastError       string     `json:"last_error,omitempty"`
	LastGate        GateResult `json:"last_gate"`
}

// keepVersions is the GC policy applied after each successful publish: the
// newest 5 versions stay on disk, plus whatever is current.
const keepVersions = 5

// NewManager wires a manager around a serving system and an opened store.
func NewManager(sys *core.System, store *Store) (*Manager, error) {
	if sys == nil || store == nil {
		return nil, fmt.Errorf("modelstore: manager needs a system and a store")
	}
	m := &Manager{
		sys:   sys,
		store: store,
		net:   sys.Network(),
		topo:  NetworkTopologyHash(sys.Network()),
	}
	if cur, ok := store.Current(); ok {
		m.setStatus(func(st *Status) { st.CurrentVersion = cur.Version })
	}
	return m, nil
}

// Store returns the underlying snapshot store.
func (m *Manager) Store() *Store { return m.store }

// System returns the serving system.
func (m *Manager) System() *core.System { return m.sys }

func (m *Manager) setStatus(f func(*Status)) {
	m.statMu.Lock()
	f(&m.stat)
	m.stat.ModelGeneration = m.sys.ModelVersion()
	m.stat.Swaps = m.sys.Swaps()
	m.statMu.Unlock()
}

// Status returns a snapshot of the lifecycle counters.
func (m *Manager) Status() Status {
	m.statMu.Lock()
	st := m.stat
	m.statMu.Unlock()
	st.ModelGeneration = m.sys.ModelVersion()
	st.Swaps = m.sys.Swaps()
	return st
}

// History returns the store's version list, ascending.
func (m *Manager) History() []VersionInfo { return m.store.Versions() }

// Publish runs a candidate through the gate, persists it as a new store
// version and hot-swaps it into the serving system, pre-warming the oracle
// slots of the holdout samples, then GCs the store down to keepVersions. A
// refused candidate is neither stored nor swapped; the error wraps
// ErrGateRefused.
func (m *Manager) Publish(cand *rtf.Model, meta Meta, holdout []HoldoutSample) (VersionInfo, GateResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	gr := Gate(m.net, m.sys.Model(), cand, holdout)
	if gr.Refused {
		m.setStatus(func(st *Status) {
			st.Rejected++
			st.LastError = gr.Reason
			st.LastGate = gr
		})
		return VersionInfo{}, gr, fmt.Errorf("%w: %s", ErrGateRefused, gr.Reason)
	}
	if gr.LLChecked {
		meta.HoldoutLL = gr.CandidateLL
	}
	if cur, ok := m.store.Current(); ok && meta.Parent == 0 {
		meta.Parent = cur.Version
	}
	info, err := m.store.Save(cand, meta)
	if err != nil {
		m.setStatus(func(st *Status) { st.LastError = err.Error() })
		return VersionInfo{}, gr, err
	}
	if _, _, err := m.sys.SwapModel(cand, prewarmSlots(holdout)); err != nil {
		m.setStatus(func(st *Status) { st.LastError = err.Error() })
		return info, gr, fmt.Errorf("modelstore: swap after publish: %w", err)
	}
	m.setStatus(func(st *Status) {
		st.CurrentVersion = info.Version
		st.Published++
		st.LastSwapUnix = time.Now().Unix()
		st.LastError = ""
		st.LastGate = gr
	})
	if _, err := m.store.GC(keepVersions); err != nil {
		m.setStatus(func(st *Status) { st.LastError = "gc: " + err.Error() })
	}
	return info, gr, nil
}

// Rollback repoints the store to the previous version, loads and
// structurally re-validates that snapshot, and hot-swaps it in. The
// likelihood gate deliberately does not apply: rolling back is the
// operator's escape hatch and must succeed even when the old model scores
// worse on current data.
func (m *Manager) Rollback() (VersionInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	info, err := m.store.Rollback()
	if err != nil {
		m.setStatus(func(st *Status) { st.LastError = err.Error() })
		return VersionInfo{}, err
	}
	if err := m.swapVersionLocked(info); err != nil {
		return VersionInfo{}, err
	}
	m.setStatus(func(st *Status) {
		st.CurrentVersion = info.Version
		st.Rollbacks++
		st.LastSwapUnix = time.Now().Unix()
		st.LastError = ""
	})
	return info, nil
}

// Reload loads the store's current version and hot-swaps it into the system
// — the startup path ("serve whatever the store says is current") and the
// recovery path after an external SetCurrent.
func (m *Manager) Reload() (VersionInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	cur, ok := m.store.Current()
	if !ok {
		return VersionInfo{}, ErrEmptyStore
	}
	if err := m.swapVersionLocked(cur); err != nil {
		return VersionInfo{}, err
	}
	m.setStatus(func(st *Status) {
		st.CurrentVersion = cur.Version
		st.LastSwapUnix = time.Now().Unix()
		st.LastError = ""
	})
	return cur, nil
}

// swapVersionLocked loads a stored version, verifies its topology against
// the serving network and structural validity, and swaps it in.
func (m *Manager) swapVersionLocked(info VersionInfo) error {
	if info.TopoHash != m.topo {
		err := fmt.Errorf("%w: stored v%d has topology %016x, serving network %016x",
			ErrTopologyMismatch, info.Version, info.TopoHash, m.topo)
		m.setStatus(func(st *Status) { st.LastError = err.Error() })
		return err
	}
	model, _, err := m.store.Load(info.Version)
	if err != nil {
		m.setStatus(func(st *Status) { st.LastError = err.Error() })
		return err
	}
	if err := ValidateModel(m.net, model); err != nil {
		m.setStatus(func(st *Status) { st.LastError = err.Error() })
		return err
	}
	if _, _, err := m.sys.SwapModel(model, nil); err != nil {
		m.setStatus(func(st *Status) { st.LastError = err.Error() })
		return err
	}
	return nil
}

// prewarmSlots extracts the distinct slots of the holdout set — the slots
// queries are most likely to hit right after the swap.
func prewarmSlots(holdout []HoldoutSample) []tslot.Slot {
	seen := make(map[tslot.Slot]bool, len(holdout))
	var out []tslot.Slot
	for _, h := range holdout {
		if h.Slot.Valid() && !seen[h.Slot] {
			seen[h.Slot] = true
			out = append(out, h.Slot)
		}
	}
	return out
}
