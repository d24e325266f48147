package core

import (
	"container/list"
	"sync"

	"repro/internal/corr"
	"repro/internal/tslot"
)

// DefaultOracleCacheSlots is the default LRU capacity of the per-slot
// correlation-oracle cache: one full day of 5-minute slots, so a system
// cycling through the day at Small scale never evicts.
const DefaultOracleCacheSlots = tslot.PerDay

// CacheReport aggregates the correlation-cache state of a System: the
// counters of every resident oracle plus the retired counters of evicted
// ones. It is JSON-ready so the server can embed it in /v1/healthz.
type CacheReport struct {
	ResidentOracles int     `json:"resident_oracles"`
	ResidentRows    int     `json:"resident_rows"`
	ResidentBytes   int64   `json:"resident_bytes"`
	Hits            uint64  `json:"hits"`
	Misses          uint64  `json:"misses"`
	InflightWaits   uint64  `json:"inflight_waits"`
	Evictions       uint64  `json:"evictions"`
	HitRate         float64 `json:"hit_rate"`
}

// cacheEntry pairs a slot with its oracle inside the LRU list.
type cacheEntry struct {
	slot   tslot.Slot
	oracle *corr.Oracle
}

// oracleCache is the bounded replacement for the old unbounded
// map[tslot.Slot]*corr.Oracle: an LRU keyed by slot with an entry budget and
// an optional resident-byte budget. A day-long replay touches 288 slots and
// each oracle can grow to n rows of n float64s, so an unbounded map is a slow
// memory leak at production scale; the LRU keeps the working set hot and
// reports what it evicts.
type oracleCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	entries    map[tslot.Slot]*list.Element
	order      *list.List // front = most recently used
	evictions  uint64
	retired    corr.CacheStats // hit/miss counters of evicted oracles
}

func newOracleCache(maxEntries int, maxBytes int64) *oracleCache {
	if maxEntries <= 0 {
		maxEntries = DefaultOracleCacheSlots
	}
	return &oracleCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		entries:    make(map[tslot.Slot]*list.Element),
		order:      list.New(),
	}
}

// get returns the cached oracle for t, building it on a miss, and enforces
// the budgets. The most recently used entry is never evicted.
func (c *oracleCache) get(t tslot.Slot, build func() *corr.Oracle) *corr.Oracle {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[t]; ok {
		c.order.MoveToFront(el)
		c.enforceLocked()
		return el.Value.(*cacheEntry).oracle
	}
	o := build()
	c.entries[t] = c.order.PushFront(&cacheEntry{slot: t, oracle: o})
	c.enforceLocked()
	return o
}

// enforceLocked evicts LRU entries until both budgets hold. The byte budget
// is re-checked on every access because resident bytes grow as rows are
// computed, not only when oracles are inserted.
func (c *oracleCache) enforceLocked() {
	for len(c.entries) > c.maxEntries && len(c.entries) > 1 {
		c.evictOldestLocked()
	}
	if c.maxBytes <= 0 {
		return
	}
	for len(c.entries) > 1 && c.residentBytesLocked() > c.maxBytes {
		c.evictOldestLocked()
	}
}

func (c *oracleCache) residentBytesLocked() int64 {
	var total int64
	for el := c.order.Front(); el != nil; el = el.Next() {
		total += el.Value.(*cacheEntry).oracle.Stats().ResidentBytes
	}
	return total
}

func (c *oracleCache) evictOldestLocked() {
	el := c.order.Back()
	if el == nil {
		return
	}
	e := el.Value.(*cacheEntry)
	st := e.oracle.Stats()
	// Retire the counters but not the footprint: the rows are gone.
	c.retired.Hits += st.Hits
	c.retired.Misses += st.Misses
	c.retired.InflightWaits += st.InflightWaits
	c.order.Remove(el)
	delete(c.entries, e.slot)
	c.evictions++
}

// counters returns only the monotonic counters (hits/misses/inflight waits/
// evictions) of the cache, live and retired combined. SwapModel folds these
// into System.retired when a model generation is replaced, so the flushed
// cache's history is not lost from OracleCacheReport.
func (c *oracleCache) counters() CacheReport {
	r := c.report()
	r.ResidentOracles, r.ResidentRows, r.ResidentBytes = 0, 0, 0
	return r
}

// retiredCounters accumulates cache counters of model states retired by
// hot-swaps. Guarded by its own mutex because swaps are rare and reports
// must not contend with the query path.
type retiredCounters struct {
	mu sync.Mutex
	r  CacheReport
}

func (rc *retiredCounters) fold(c CacheReport) {
	rc.mu.Lock()
	rc.r.Hits += c.Hits
	rc.r.Misses += c.Misses
	rc.r.InflightWaits += c.InflightWaits
	rc.r.Evictions += c.Evictions
	rc.mu.Unlock()
}

func (rc *retiredCounters) addTo(r *CacheReport) {
	rc.mu.Lock()
	r.Hits += rc.r.Hits
	r.Misses += rc.r.Misses
	r.InflightWaits += rc.r.InflightWaits
	r.Evictions += rc.r.Evictions
	rc.mu.Unlock()
}

// report aggregates live and retired counters.
func (c *oracleCache) report() CacheReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := CacheReport{
		ResidentOracles: len(c.entries),
		Hits:            c.retired.Hits,
		Misses:          c.retired.Misses,
		InflightWaits:   c.retired.InflightWaits,
		Evictions:       c.evictions,
	}
	for el := c.order.Front(); el != nil; el = el.Next() {
		st := el.Value.(*cacheEntry).oracle.Stats()
		r.ResidentRows += st.ResidentRows
		r.ResidentBytes += st.ResidentBytes
		r.Hits += st.Hits
		r.Misses += st.Misses
		r.InflightWaits += st.InflightWaits
	}
	if total := r.Hits + r.Misses; total > 0 {
		r.HitRate = float64(r.Hits) / float64(total)
	}
	return r
}
