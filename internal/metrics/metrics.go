// Package metrics is the simulator's unified telemetry layer: a
// zero-dependency registry of named counters, gauges, value distributions,
// fixed-bucket duration histograms and state clocks, plus a time-sliced
// series sampler driven by sim.Engine events (sampler.go).
//
// Writers are the simulation goroutine; readers may be anyone. Instruments
// never feed back into protocol behaviour, so attaching them — or scraping
// them live over the observability plane (internal/obs) — cannot perturb a
// deterministic run. To make live scraping safe, counters are atomic and
// the remaining instruments carry a small mutex; the costs are uncontended
// in a normal run and values still never flow back into the protocol, so
// runs stay bit-identical whether or not anyone is reading.
//
// Every instrument is nil-safe: methods on a nil *Counter, *Gauge, *Dist,
// *Timing or *StateClock are no-ops, and a nil *Registry hands out nil
// instruments. Instrumented code therefore records unconditionally and pays
// nothing when telemetry is not wired up.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Counter is a named monotonically increasing event count. Safe for
// concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a named last-written value. Safe for concurrent use.
type Gauge struct {
	mu  sync.Mutex
	v   float64
	set bool
}

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.mu.Lock()
		g.v, g.set = v, true
		g.mu.Unlock()
	}
}

// Value returns the current value (0 on a nil or never-set gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Dist is a streaming distribution of unitless values (window occupancy,
// queue lengths): count, mean, min, max and variance via stats.Online.
// Safe for concurrent use.
type Dist struct {
	mu sync.Mutex
	o  stats.Online
}

// Observe records one value.
func (d *Dist) Observe(x float64) {
	if d != nil {
		d.mu.Lock()
		d.o.Add(x)
		d.mu.Unlock()
	}
}

func (d *Dist) snapshot() DistSnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DistSnapshot{
		N: d.o.N(), Mean: d.o.Mean(), Min: d.o.Min(), Max: d.o.Max(), StdDev: d.o.StdDev(),
	}
}

// Timing is a duration distribution: streaming moments, a fixed-bucket
// histogram (stats.Histogram over seconds) and the raw samples, kept so
// reports can compute exact percentiles through stats.ECDF. Safe for
// concurrent use.
type Timing struct {
	mu      sync.Mutex
	o       stats.Online
	hist    *stats.Histogram
	samples []float64 // seconds
}

// Default histogram range for Registry.Timing: [0, 1s) in 50 bins of 20 ms.
// Out-of-range samples land in the histogram's Under/Over counts; exact
// values survive in the raw samples either way.
const (
	defaultTimingHi   = time.Second
	defaultTimingBins = 50
)

func newTiming(lo, hi time.Duration, bins int) *Timing {
	return &Timing{hist: stats.NewHistogram(lo.Seconds(), hi.Seconds(), bins)}
}

// Observe records one duration.
func (t *Timing) Observe(d time.Duration) {
	if t == nil {
		return
	}
	s := d.Seconds()
	t.mu.Lock()
	t.o.Add(s)
	t.hist.Add(s)
	t.samples = append(t.samples, s)
	t.mu.Unlock()
}

// StateClock partitions elapsed virtual time into named states: every Set
// closes the open interval and charges it to the previous state. By
// construction the buckets of a snapshot sum to exactly (now - creation
// time), which is what makes per-station airtime breakdowns auditable.
// Safe for concurrent use: Breakdown can be read mid-state from a scrape
// while the simulation keeps switching states.
type StateClock struct {
	mu    sync.Mutex
	now   func() time.Duration
	state string
	since time.Duration
	// names[i] is the i-th state ever left, acc[i] its total: a few states.
	names []string
	acc   []time.Duration
}

func newStateClock(now func() time.Duration, initial string) *StateClock {
	return &StateClock{now: now, state: initial, since: now()}
}

// slot returns state's index in names, or -1 if it was never left.
func (s *StateClock) slot(state string) int {
	for i, n := range s.names {
		if n == state {
			return i
		}
	}
	return -1
}

// Set transitions to state, charging the time since the last transition to
// the previous state. Setting the current state is a no-op.
//
// Set must only be called from one goroutine (the simulation's). That makes
// the unlocked same-state check race-free: s.state is written only here,
// under the lock, by the goroutine doing the check, and concurrent readers
// only read it. Most calls re-set the current state and return there.
func (s *StateClock) Set(state string) {
	if s == nil || state == s.state {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.now()
	i := s.slot(s.state)
	if i < 0 {
		i = len(s.names)
		s.names, s.acc = append(s.names, s.state), append(s.acc, 0)
	}
	s.acc[i] += t - s.since
	s.state, s.since = state, t
}

// Breakdown returns a copy of the per-state totals with the open interval
// charged up to now. The clock itself is not mutated.
func (s *StateClock) Breakdown() map[string]time.Duration {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]time.Duration, len(s.acc)+1)
	for i, k := range s.names {
		out[k] = s.acc[i]
	}
	out[s.state] += s.now() - s.since
	return out
}

// Registry is a named collection of instruments with get-or-create
// semantics: asking twice for the same name returns the same instrument, so
// independent components can share an accumulator. Safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	dists    map[string]*Dist
	timings  map[string]*Timing
	clocks   map[string]*StateClock
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		dists:    make(map[string]*Dist),
		timings:  make(map[string]*Timing),
		clocks:   make(map[string]*StateClock),
	}
}

// instrument returns m[name], creating it with mk on first use. A hit
// takes only the read lock and allocates nothing.
func instrument[T any](r *Registry, m map[string]*T, name string, mk func() *T) *T {
	r.mu.RLock()
	v, ok := m[name]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := m[name]; ok {
		return v
	}
	v = mk()
	m[name] = v
	return v
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return instrument(r, r.counters, name, func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return instrument(r, r.gauges, name, func() *Gauge { return &Gauge{} })
}

// Dist returns the named distribution, creating it on first use.
func (r *Registry) Dist(name string) *Dist {
	if r == nil {
		return nil
	}
	return instrument(r, r.dists, name, func() *Dist { return &Dist{} })
}

// Timing returns the named duration distribution with the default histogram
// buckets, creating it on first use.
func (r *Registry) Timing(name string) *Timing {
	return r.TimingBuckets(name, 0, defaultTimingHi, defaultTimingBins)
}

// TimingBuckets returns the named duration distribution with an explicit
// histogram range [lo, hi) split into bins. The range only applies on
// creation; later calls return the existing instrument.
func (r *Registry) TimingBuckets(name string, lo, hi time.Duration, bins int) *Timing {
	if r == nil {
		return nil
	}
	return instrument(r, r.timings, name, func() *Timing { return newTiming(lo, hi, bins) })
}

// StateClock returns the named state clock, creating it on first use in the
// given initial state with now as its time source.
func (r *Registry) StateClock(name string, now func() time.Duration, initial string) *StateClock {
	if r == nil {
		return nil
	}
	return instrument(r, r.clocks, name, func() *StateClock { return newStateClock(now, initial) })
}

// --- exposition -----------------------------------------------------------

// Snapshot is a JSON-marshalable copy of a registry's instruments. Empty
// instrument classes are omitted. encoding/json writes map keys in sorted
// order, so marshalled snapshots are deterministic byte-for-byte; callers
// that iterate the maps themselves must sort the keys (see SortedKeys).
type Snapshot struct {
	Counters map[string]int64          `json:"counters,omitempty"`
	Gauges   map[string]float64        `json:"gauges,omitempty"`
	Dists    map[string]DistSnapshot   `json:"dists,omitempty"`
	Timings  map[string]TimingSnapshot `json:"timings,omitempty"`
	// AirtimeSec maps clock name -> state -> seconds; each clock's states
	// sum to the elapsed time since the clock was created.
	AirtimeSec map[string]map[string]float64 `json:"airtime_sec,omitempty"`
}

// DistSnapshot summarises a Dist.
type DistSnapshot struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	StdDev float64 `json:"stddev"`
}

// TimingSnapshot summarises a Timing in milliseconds.
type TimingSnapshot struct {
	N      int     `json:"n"`
	MeanMs float64 `json:"mean_ms"`
	MinMs  float64 `json:"min_ms"`
	MaxMs  float64 `json:"max_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	// Buckets lists the non-empty histogram bins in ascending bin order.
	Buckets []TimingBucket `json:"buckets,omitempty"`
	// Under/Over count samples outside the histogram range (they are still
	// part of the moments and percentiles above).
	Under int `json:"under,omitempty"`
	Over  int `json:"over,omitempty"`
}

// TimingBucket is one non-empty histogram bin.
type TimingBucket struct {
	LoMs  float64 `json:"lo_ms"`
	HiMs  float64 `json:"hi_ms"`
	Count int     `json:"count"`
}

// Snapshot captures every instrument of the registry. A nil registry yields
// a zero Snapshot. Safe to call while the simulation is writing: each
// instrument is copied under its own lock, so a live scrape sees a coherent
// per-instrument view (the snapshot as a whole is not a single atomic cut —
// it cannot be without stopping the run, and a monitoring read does not
// need it to be).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := copyRefs(r.counters)
	gauges := copyRefs(r.gauges)
	dists := copyRefs(r.dists)
	timings := copyRefs(r.timings)
	clocks := copyRefs(r.clocks)
	r.mu.RUnlock()

	if len(counters) > 0 {
		s.Counters = make(map[string]int64, len(counters))
		for n, c := range counters {
			s.Counters[n] = c.Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]float64, len(gauges))
		for n, g := range gauges {
			s.Gauges[n] = g.Value()
		}
	}
	if len(dists) > 0 {
		s.Dists = make(map[string]DistSnapshot, len(dists))
		for n, d := range dists {
			s.Dists[n] = d.snapshot()
		}
	}
	if len(timings) > 0 {
		s.Timings = make(map[string]TimingSnapshot, len(timings))
		for n, t := range timings {
			s.Timings[n] = t.snapshot()
		}
	}
	if len(clocks) > 0 {
		s.AirtimeSec = make(map[string]map[string]float64, len(clocks))
		for n, c := range clocks {
			states := make(map[string]float64)
			for st, d := range c.Breakdown() {
				states[st] = d.Seconds()
			}
			s.AirtimeSec[n] = states
		}
	}
	return s
}

// copyRefs copies a name->instrument map so instruments can be read outside
// the registry lock.
func copyRefs[T any](m map[string]*T) map[string]*T {
	out := make(map[string]*T, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (t *Timing) snapshot() TimingSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := TimingSnapshot{N: t.o.N()}
	if t.o.N() == 0 {
		return snap
	}
	const ms = 1e3
	snap.MeanMs = t.o.Mean() * ms
	snap.MinMs = t.o.Min() * ms
	snap.MaxMs = t.o.Max() * ms
	e := stats.NewECDF(t.samples)
	q := func(p float64) float64 {
		v, err := e.Quantile(p)
		if err != nil {
			return 0
		}
		return v * ms
	}
	snap.P50Ms, snap.P90Ms, snap.P99Ms, snap.P999Ms = q(0.5), q(0.9), q(0.99), q(0.999)
	snap.Under, snap.Over = t.hist.Under, t.hist.Over
	for i, c := range t.hist.Counts {
		if c == 0 {
			continue
		}
		lo := t.hist.Lo + float64(i)*(t.hist.Hi-t.hist.Lo)/float64(len(t.hist.Counts))
		hi := t.hist.Lo + float64(i+1)*(t.hist.Hi-t.hist.Lo)/float64(len(t.hist.Counts))
		snap.Buckets = append(snap.Buckets, TimingBucket{LoMs: lo * ms, HiMs: hi * ms, Count: c})
	}
	return snap
}

// SortedKeys returns the keys of a snapshot map in sorted order — the
// iteration order every exposition format uses, so that /metrics responses
// and bench artifacts are diff-stable.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
