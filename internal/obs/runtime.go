package obs

import (
	"math"
	rtm "runtime/metrics"
)

// RegisterRuntime attaches the dwatch_go_* families to the registry,
// sourced from runtime/metrics at collection time: goroutine count,
// heap/total memory, GC cycles, and GC-pause / scheduler-latency
// quantiles. Every daemon binary registers this next to
// RegisterBuildInfo so a fleet operator can tell "node is slow because
// GC is thrashing" from "node is slow because the RF plane is" without
// attaching a profiler first.
func RegisterRuntime(r *Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc("dwatch_go_goroutines",
		"Current number of live goroutines.",
		runtimeValue("/sched/goroutines:goroutines"))
	r.GaugeFunc("dwatch_go_heap_objects_bytes",
		"Bytes of memory occupied by live heap objects.",
		runtimeValue("/memory/classes/heap/objects:bytes"))
	r.GaugeFunc("dwatch_go_mem_total_bytes",
		"Total bytes of memory mapped by the Go runtime.",
		runtimeValue("/memory/classes/total:bytes"))
	r.GaugeFunc("dwatch_go_gc_cycles",
		"Completed GC cycles since process start.",
		runtimeValue("/gc/cycles/total:gc-cycles"))
	quant := r.GaugeVec("dwatch_go_gc_pause_seconds",
		"Distribution of stop-the-world GC pause latencies.", "quantile")
	quant.Attach(nil, runtimeQuantile("/sched/pauses/total/gc:seconds", 0.5), "0.5")
	quant.Attach(nil, runtimeQuantile("/sched/pauses/total/gc:seconds", 0.99), "0.99")
	sched := r.GaugeVec("dwatch_go_sched_latency_seconds",
		"Distribution of goroutine scheduling latencies.", "quantile")
	sched.Attach(nil, runtimeQuantile("/sched/latencies:seconds", 0.5), "0.5")
	sched.Attach(nil, runtimeQuantile("/sched/latencies:seconds", 0.99), "0.99")
}

// runtimeValue reads one scalar runtime/metrics sample at collection
// time. Unknown or bad metrics read as 0 rather than failing the
// scrape — runtime/metrics names are version-dependent program data.
func runtimeValue(name string) func() float64 {
	return func() float64 {
		s := []rtm.Sample{{Name: name}}
		rtm.Read(s)
		switch s[0].Value.Kind() {
		case rtm.KindUint64:
			return float64(s[0].Value.Uint64())
		case rtm.KindFloat64:
			return s[0].Value.Float64()
		default:
			return 0
		}
	}
}

// runtimeQuantile reads a runtime/metrics histogram and computes the
// q-quantile from its cumulative bucket counts at collection time.
func runtimeQuantile(name string, q float64) func() float64 {
	return func() float64 {
		s := []rtm.Sample{{Name: name}}
		rtm.Read(s)
		if s[0].Value.Kind() != rtm.KindFloat64Histogram {
			return 0
		}
		return histQuantile(s[0].Value.Float64Histogram(), q)
	}
}

// histQuantile walks a runtime/metrics histogram to the bucket holding
// the q-quantile and returns that bucket's upper edge (the resolution
// runtime histograms offer). Infinite edges fall back to the nearest
// finite neighbour.
func histQuantile(h *rtm.Float64Histogram, q float64) float64 {
	if h == nil || len(h.Counts) == 0 {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			// Bucket i spans Buckets[i]..Buckets[i+1].
			edge := h.Buckets[i+1]
			if math.IsInf(edge, 0) {
				edge = h.Buckets[i]
			}
			if math.IsInf(edge, 0) {
				return 0
			}
			return edge
		}
	}
	return 0
}
