package main

import "time"

// The machines the benchmark runs on share their caches, memory bandwidth and
// cores with other guests, and the system's timings move with the load those
// guests put on the host: by a quarter, sometimes by half, from one minute to
// the next (README.md, "Host load"). So each run reads the host: it times a
// fixed kernel that belongs to the benchmark, only in windows where no
// request is in flight, and scales every timing to the kernel's reference
// time. The reading follows the host and never the code under test.
const (
	// refWindow is how long each idle window reads the host.
	refWindow = 300 * time.Millisecond
	// refUs is the kernel's median, in µs, on the idle 2-vCPU machine the
	// baselines were recorded on.
	refUs = 82.0
)

// hostReading is the kernel's timings over a run's idle windows.
type hostReading []float64

// window times the kernel repeatedly for about d.
func (h *hostReading) window(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		start := time.Now()
		refKernel()
		*h = append(*h, us(time.Since(start)))
	}
}

func (h hostReading) medianUs() float64 { return quantile(h, 0.5) }

// scale is the factor that brings a time measured during the reading to the
// reference host.
func (h hostReading) scale() float64 { return refUs / h.medianUs() }

var refSink uint64

// refKernel is a chain of 40,000 dependent xorshift steps. Of the kernels
// tried, it is the one whose time tracked every workload's timings across
// sets of runs; a pass over 16 MB of memory tracked metro-read's better in
// some sets and far worse in others.
func refKernel() {
	x := uint64(88172645463325252)
	for i := 0; i < 40000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink += x
}
