package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: fewer, and the percentile is one or two outliers.
const minBeyond = 10

// median returns the median of xs (the mean of the middle pair for
// even lengths); xs is sorted in place. NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tailPercentile returns the nearest-rank q-quantile of sorted and
// whether at least minBeyond samples lie strictly beyond its rank.
// Failed requests enter sorted as +Inf, so they always count beyond
// any limit a finite percentile sets.
func tailPercentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n-1-idx >= minBeyond
}

// mean returns the arithmetic mean of xs, 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCounters are the runtime's process-wide counters the per-layer
// process metrics are derived from.
type procCounters struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU          float64
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() procCounters {
	s := append([]metrics.Sample(nil), procSamples...)
	metrics.Read(s)
	return procCounters{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

// heapSlice is the length of the slices heapSampler takes peaks over.
const heapSlice = time.Second

// heapSampler records the peak Go heap in use in every heapSlice while
// it runs.
type heapSampler struct {
	stop chan struct{}
	done chan []float64
}

// startHeapSampler samples live-and-unswept heap object bytes every
// 5ms until stopped.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peaks []float64
		start := time.Now()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			i := int(time.Since(start) / heapSlice)
			for len(peaks) <= i {
				peaks = append(peaks, 0)
			}
			peaks[i] = math.Max(peaks[i], float64(s[0].Value.Uint64()))
			select {
			case <-h.stop:
				h.done <- peaks
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the median of the slice peaks in
// bytes: a peak that one stray collection cycle cannot move far.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	return median(<-h.done)
}

// hostStamp identifies where and on what a result was measured.
type hostStamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func newHostStamp(o options) hostStamp {
	return hostStamp{
		Workload:   o.workload,
		Seed:       o.seed,
		Commit:     o.commit,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seconds:    o.seconds,
		Trace:      o.trace,
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown"
// where that file does not exist).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
