// Package prof is the simulator's hot-path attribution layer: an engine
// dispatch observer that charges event counts and sampled wall time to a
// small fixed set of subsystem tags (sim.Tag), plus a lock-free flight
// recorder of the last N dispatched events (flight.go).
//
// The profiler is always compiled and near-zero-overhead when not attached:
// the engine pays one nil-check branch per event. When attached it pays one
// atomic increment per event and one time.Now() every SampleEvery events,
// so the dispatch loop stays allocation-free and the run's virtual behavior
// — RNG streams, event order, reports — is bit-identical to an unprofiled
// run (asserted by the netsim golden-report suite).
//
// Wall-time attribution is sampled, not exact: every SampleEvery-th event
// the elapsed wall time since the previous sample is charged to that
// event's tag. Over the millions of events of a real run the per-tag
// shares converge on the true distribution, which is what capacity planning
// needs; individual nanosecond charges are meaningless and not exposed.
package prof

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// Config parameterises a Profiler.
type Config struct {
	// SampleEvery is the timestamp sampling stride: wall time is measured
	// once per this many events (default 64). 1 measures every event —
	// exact, but the clock reads dominate small runs.
	SampleEvery int
	// FlightEvents is the flight-recorder ring capacity, rounded up to a
	// power of two (default 4096; negative disables the recorder).
	FlightEvents int
	// Dir is where flight dumps land (default "results/profiles").
	Dir string
}

// runSeq numbers profilers process-wide for their run ids.
var runSeq atomic.Uint64

func (c *Config) applyDefaults() {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 64
	}
	if c.FlightEvents == 0 {
		c.FlightEvents = 4096
	}
	if c.Dir == "" {
		c.Dir = "results/profiles"
	}
}

// Profiler implements sim.Observer. Writers are the simulation goroutine;
// the per-tag accumulators are atomics so Attribution may be called from
// scrape goroutines mid-run.
type Profiler struct {
	cfg    Config
	events [sim.NumTags]atomic.Uint64 // dispatched events per tag
	nanos  [sim.NumTags]atomic.Int64  // sampled wall nanos per tag

	// Sampling state, simulation goroutine only.
	sinceSample int
	lastSample  time.Time
	flight      *Flight
	// runID namespaces this profiler's flight-dump filenames
	// (flight-<runid>-<reason>-<total>.json) with a process-unique "runN".
	// Several runs in one process — a comap-experiments grid — can dump the
	// same reason and total into one directory; a per-run id keeps the
	// files from overwriting each other.
	runID string
}

// New returns a profiler ready to be installed with sim.Engine.SetObserver.
func New(cfg Config) *Profiler {
	cfg.applyDefaults()
	p := &Profiler{cfg: cfg, lastSample: time.Now(), runID: fmt.Sprintf("run%d", runSeq.Add(1))}
	if cfg.FlightEvents > 0 {
		p.flight = NewFlight(cfg.FlightEvents)
	}
	return p
}

// OnEvent charges one dispatched event to tag and records it in the flight
// ring. Runs on the simulation goroutine inside the dispatch loop;
// allocation-free.
func (p *Profiler) OnEvent(at time.Duration, tag sim.Tag, owner int32) {
	if tag >= sim.NumTags {
		tag = sim.TagOther
	}
	p.events[tag].Add(1)
	if p.flight != nil {
		p.flight.Record(at, tag, owner)
	}
	p.sinceSample++
	if p.sinceSample >= p.cfg.SampleEvery {
		p.sinceSample = 0
		now := time.Now()
		p.nanos[tag].Add(now.Sub(p.lastSample).Nanoseconds())
		p.lastSample = now
	}
}

// Flight returns the flight recorder (nil when disabled).
func (p *Profiler) Flight() *Flight { return p.flight }

// TagStat is one subsystem's attribution line.
type TagStat struct {
	// Tag is the stable subsystem name (sim.Tag.String).
	Tag string `json:"tag"`
	// Events is the number of dispatched events charged to the tag.
	Events uint64 `json:"events"`
	// SampledSec is the wall time charged by timestamp sampling.
	SampledSec float64 `json:"sampled_sec"`
	// SharePct is SampledSec as a percentage of the total sampled time
	// (0 when nothing was sampled yet).
	SharePct float64 `json:"share_pct"`
}

// Attribution is the machine-readable profile: where the dispatch loop's
// events and wall time went, by subsystem. It is what /profile serves and
// what comap-sim -profile-out writes.
type Attribution struct {
	// SampleEvery is the timestamp sampling stride the numbers were
	// collected at.
	SampleEvery int `json:"sample_every"`
	// Events is the total number of dispatched events observed.
	Events uint64 `json:"events"`
	// SampledSec is the total wall time charged across tags.
	SampledSec float64 `json:"sampled_sec"`
	// Tags lists every subsystem in fixed tag order, zero rows included,
	// so consumers can diff attributions positionally.
	Tags []TagStat `json:"tags"`
}

// Attribution snapshots the per-tag accumulators. Safe for concurrent use
// with a running simulation.
func (p *Profiler) Attribution() Attribution {
	a := Attribution{SampleEvery: p.cfg.SampleEvery}
	var totalNs int64
	for t := sim.Tag(0); t < sim.NumTags; t++ {
		a.Events += p.events[t].Load()
		totalNs += p.nanos[t].Load()
	}
	a.SampledSec = float64(totalNs) / 1e9
	a.Tags = make([]TagStat, 0, sim.NumTags)
	for t := sim.Tag(0); t < sim.NumTags; t++ {
		ns := p.nanos[t].Load()
		ts := TagStat{
			Tag:        t.String(),
			Events:     p.events[t].Load(),
			SampledSec: float64(ns) / 1e9,
		}
		if totalNs > 0 {
			ts.SharePct = float64(ns) / float64(totalNs) * 100
		}
		a.Tags = append(a.Tags, ts)
	}
	return a
}
