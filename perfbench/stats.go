package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// runtimeStats reads the Go runtime's allocation and GC counters.
type runtimeStats struct {
	samples []metrics.Sample
	mem     runtime.MemStats
}

// rtSnap is one reading of runtimeStats.
type rtSnap struct {
	AllocBytes  uint64  // cumulative heap bytes allocated
	GCCycles    uint64  // completed GC cycles
	GCCPU       float64 // estimated CPU seconds spent in GC
	HeapObjects uint64  // bytes of live and unswept heap objects
}

func newRuntimeStats() *runtimeStats {
	return &runtimeStats{samples: []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}}
}

// read takes the allocation count from runtime.ReadMemStats, which flushes
// the per-P allocation caches: runtime/metrics counts a cached span as
// allocated when it is fetched, which makes identical runs differ by
// hundreds of kilobytes.
func (r *runtimeStats) read() rtSnap {
	runtime.ReadMemStats(&r.mem)
	metrics.Read(r.samples)
	return rtSnap{
		AllocBytes:  r.mem.TotalAlloc,
		GCCycles:    r.samples[0].Value.Uint64(),
		GCCPU:       r.samples[1].Value.Float64(),
		HeapObjects: r.samples[2].Value.Uint64(),
	}
}

// gcWindow accumulates the runtime per-layer metrics over a traced phase:
// GC cycles and CPU between begin and end, and the heap peak over every
// sample taken in between.
type gcWindow struct {
	rt       *runtimeStats
	start    rtSnap
	heapPeak uint64
}

func beginGC(rt *runtimeStats) *gcWindow {
	s := rt.read()
	return &gcWindow{rt: rt, start: s, heapPeak: s.HeapObjects}
}

// sample folds the current heap size into the peak. It reads only
// runtime/metrics: ReadMemStats stops the world, too costly per step.
func (g *gcWindow) sample() {
	heap := g.rt.samples[2:3]
	metrics.Read(heap)
	if h := heap[0].Value.Uint64(); h > g.heapPeak {
		g.heapPeak = h
	}
}

// report writes the runtime.* metrics.
func (g *gcWindow) report(values map[string]float64) {
	g.sample()
	end := g.rt.read()
	values["runtime.gc_cycles"] = float64(end.GCCycles - g.start.GCCycles)
	values["runtime.gc_cpu_s"] = end.GCCPU - g.start.GCCPU
	values["runtime.heap_peak_mb"] = float64(g.heapPeak) / 1e6
}
