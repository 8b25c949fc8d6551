package main

import (
	"math"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// samplePeriod is how often a measured window samples the Go heap
// (and, in traced runs, queue depth and pending sequences).
const samplePeriod = 5 * time.Millisecond

// Runtime metric names read over a measured window.
const (
	rmHeapObjects = "/memory/classes/heap/objects:bytes"
	rmAllocBytes  = "/gc/heap/allocs:bytes"
	rmGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU    = "/cpu/classes/total:cpu-seconds"
	rmSchedLat    = "/sched/latencies:seconds"
)

// procWindow measures the process over one window: CPU from
// getrusage, the sampled peak Go heap, and runtime/metrics deltas.
type procWindow struct {
	start    time.Time
	cpu0     time.Duration
	rm0      []metrics.Sample
	heapPeak atomic.Uint64
	stop     chan struct{}
	wg       sync.WaitGroup
}

// windowStats is what a procWindow measured.
type windowStats struct {
	wall        time.Duration
	cpu         time.Duration
	heapPeakMiB float64
	allocBytes  float64
	gcCPUShare  float64
	schedP99    time.Duration
}

func readRuntime() []metrics.Sample {
	s := []metrics.Sample{{Name: rmAllocBytes}, {Name: rmGCCPU}, {Name: rmTotalCPU}, {Name: rmSchedLat}}
	metrics.Read(s)
	return s
}

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// startWindow begins a measured window. extra, when non-nil, runs on
// every sample tick (traced runs sample pipeline gauges through it).
func startWindow(extra func()) *procWindow {
	w := &procWindow{stop: make(chan struct{})}
	w.rm0 = readRuntime()
	w.cpu0 = processCPU()
	w.start = time.Now()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		heap := []metrics.Sample{{Name: rmHeapObjects}}
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			metrics.Read(heap)
			if v := heap[0].Value.Uint64(); v > w.heapPeak.Load() {
				w.heapPeak.Store(v)
			}
			if extra != nil {
				extra()
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// end closes the window and returns its measurements.
func (w *procWindow) end() windowStats {
	wall := time.Since(w.start)
	cpu := processCPU() - w.cpu0
	rm1 := readRuntime()
	close(w.stop)
	w.wg.Wait()
	st := windowStats{
		wall:        wall,
		cpu:         cpu,
		heapPeakMiB: float64(w.heapPeak.Load()) / (1 << 20),
		allocBytes:  float64(rm1[0].Value.Uint64() - w.rm0[0].Value.Uint64()),
	}
	if total := rm1[2].Value.Float64() - w.rm0[2].Value.Float64(); total > 0 {
		st.gcCPUShare = (rm1[1].Value.Float64() - w.rm0[1].Value.Float64()) / total
	}
	st.schedP99 = histDeltaQuantile(w.rm0[3].Value.Float64Histogram(), rm1[3].Value.Float64Histogram(), 0.99)
	return st
}

// histDeltaQuantile returns the q-quantile of the observations a
// cumulative runtime histogram gained between two reads, as the upper
// edge of the bucket holding it.
func histDeltaQuantile(before, after *metrics.Float64Histogram, q float64) time.Duration {
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen > rank {
			edge := after.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = after.Buckets[i]
			}
			return time.Duration(edge * float64(time.Second))
		}
	}
	return 0
}
