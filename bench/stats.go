package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// quantile is the linear-interpolation quantile of xs (sorted in place).
// It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// quartiles returns Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is how the benchmark's spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// readCounters reads the program's public instruments and the Go runtime's.
// Per-layer counts are differences of two readings.
func readCounters(p *obs.Pipeline, sys *core.System) map[string]float64 {
	c := sys.OracleCacheReport()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return map[string]float64{
		"coalesced":    float64(p.Batch.Coalesced.Value()),
		"warm_starts":  float64(p.GSP.WarmStarts.Value()),
		"gsp_runs":     float64(p.GSP.Runs.Value()),
		"sweeps":       float64(p.GSP.Iterations.Value()),
		"sweeps_saved": float64(p.GSP.SweepsSaved.Value()),
		"aborted":      float64(p.GSP.Aborted.Value()),
		"gsp_ms":       ms(p.GSP.Latency.Sum()),
		"rows":         float64(p.CorrRowCompute.Count()),
		"row_ms":       ms(p.CorrRowCompute.Sum()),
		"hits":         float64(c.Hits),
		"misses":       float64(c.Misses),
		"inflight":     float64(c.InflightWaits),
		"evictions":    float64(c.Evictions),
		"resident_mb":  float64(c.ResidentBytes) / (1 << 20),
		"solves":       float64(p.OCS.Solves.Value()),
		"selected":     float64(p.OCS.Selected.Value()),
		"accepted":     float64(p.Stream.Accepted.Value()),
		"rejected":     float64(p.Stream.Rejected.Value()),
		"predicts":     float64(p.Temporal.Predicts.Value()),
		"updates":      float64(p.Temporal.Updates.Value()),
		"alloc_mb":     float64(m.TotalAlloc) / (1 << 20),
		"gcs":          float64(m.NumGC),
		"pause_ms":     float64(m.PauseTotalNs) / 1e6,
	}
}

// sampler calls sample every period, beside the work being measured, until
// finish.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	xs   []float64
}

func startSampler(period time.Duration, sample func() float64) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.xs = append(s.xs, sample())
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median sample.
func (s *sampler) finish() float64 {
	close(s.stop)
	s.wg.Wait()
	return quantile(s.xs, 0.5)
}

// liveHeapMB is the live heap — the bytes the last GC cycle marked live.
// It is what the process must hold; the heap in use swings between it and
// the GC goal (twice it by default) with the phase of the GC cycle.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
