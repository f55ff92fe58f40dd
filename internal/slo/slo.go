// Package slo tracks service-level objectives for the CO-MAP control
// plane: per-endpoint latency objectives with long-tail percentiles,
// error budgets and burn rates. One Tracker watches every RPC endpoint
// (verdict/ingest/invalidate); the simulator feeds it attempt outcomes on
// the virtual clock (so SLO reports are bit-reproducible), and comap-mapd
// feeds it wall-clock handler latencies.
//
// Memory is bounded: latencies land in a fixed geometric-bucket histogram
// (8 buckets per octave from 1µs to ~68s) rather than a raw sample log,
// so the tracker is safe to leave on for the lifetime of a daemon. All
// methods are safe for concurrent use.
package slo

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Objective is one endpoint's service-level objective: at least Target of
// requests answer successfully within Latency, judged over the run for the
// error budget and over a trailing Window for the burn rate.
type Objective struct {
	// Endpoint names the RPC operation ("verdict", "ingest", ...).
	Endpoint string `json:"endpoint"`
	// Latency is the per-request latency objective.
	Latency time.Duration `json:"latency_ns"`
	// Target is the goal fraction of good requests, e.g. 0.999.
	Target float64 `json:"target"`
	// Window is the trailing burn-rate window.
	Window time.Duration `json:"window_ns"`
}

// DefaultObjectives returns the control-plane defaults: every endpoint
// must answer within 5ms (a quarter of the client's 20ms call deadline),
// 99.9% good, with a one-second burn-rate window.
func DefaultObjectives() []Objective {
	obj := func(ep string) Objective {
		return Objective{Endpoint: ep, Latency: 5 * time.Millisecond, Target: 0.999, Window: time.Second}
	}
	return []Objective{obj("verdict"), obj("ingest"), obj("invalidate_node"), obj("invalidate_all")}
}

// Histogram geometry: 8 buckets per octave starting at 1µs. 208 buckets
// reach 2^26 µs ≈ 67s; anything slower clamps into the last bucket (its
// exact value still drives Max).
const (
	bucketsPerOctave = 8
	numBuckets       = 26 * bucketsPerOctave
	minLatency       = time.Microsecond
)

// bucketOf maps a latency to its histogram bucket.
func bucketOf(d time.Duration) int {
	if d <= minLatency {
		return 0
	}
	b := int(math.Floor(math.Log2(float64(d)/float64(minLatency)) * bucketsPerOctave))
	if b < 0 {
		return 0
	}
	if b >= numBuckets {
		return numBuckets - 1
	}
	return b
}

// bucketHi is the inclusive upper bound of a bucket — percentiles report
// it, so they are conservative (never under-report a tail).
func bucketHi(b int) time.Duration {
	return time.Duration(float64(minLatency) * math.Exp2(float64(b+1)/bucketsPerOctave))
}

// burnSlots subdivide the burn-rate window; expired slots age out as the
// clock advances across them.
const burnSlots = 16

type burnSlot struct {
	epoch     int64
	good, bad int64
}

// endpoint is one tracked endpoint's state.
type endpoint struct {
	obj     Objective
	total   int64
	errors  int64 // failed requests
	slow    int64 // succeeded but over the latency objective
	maxLat  time.Duration
	buckets [numBuckets]int64
	slots   [burnSlots]burnSlot
}

// Tracker tracks objectives for a set of endpoints. The clock is injected:
// the simulator passes the engine's virtual clock, comap-mapd a monotonic
// wall clock.
type Tracker struct {
	now func() time.Duration
	def Objective

	mu   sync.Mutex
	eps  map[string]*endpoint
	keys []string // sorted endpoint names, for deterministic snapshots
}

// NewTracker builds a tracker over the given clock and objectives. An
// endpoint observed without a declared objective is adopted on first use
// with the first objective's latency/target/window as the default (or
// DefaultObjectives' verdict entry when none were given).
func NewTracker(now func() time.Duration, objectives ...Objective) *Tracker {
	t := &Tracker{now: now, eps: make(map[string]*endpoint)}
	if len(objectives) == 0 {
		objectives = DefaultObjectives()
	}
	t.def = objectives[0]
	for _, o := range objectives {
		t.addLocked(o)
	}
	return t
}

func (t *Tracker) addLocked(o Objective) *endpoint {
	if o.Latency <= 0 {
		o.Latency = t.def.Latency
	}
	if o.Target <= 0 || o.Target >= 1 {
		o.Target = t.def.Target
	}
	if o.Window <= 0 {
		o.Window = t.def.Window
	}
	ep := &endpoint{obj: o}
	t.eps[o.Endpoint] = ep
	t.keys = append(t.keys, o.Endpoint)
	sort.Strings(t.keys)
	return ep
}

// Observe records one request outcome: whether it succeeded and how long
// it took. A nil tracker records nothing.
func (t *Tracker) Observe(name string, latency time.Duration, ok bool) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	ep := t.eps[name]
	if ep == nil {
		o := t.def
		o.Endpoint = name
		ep = t.addLocked(o)
	}
	ep.total++
	good := ok
	if !ok {
		ep.errors++
	} else if latency > ep.obj.Latency {
		ep.slow++
		good = false
	}
	if latency > ep.maxLat {
		ep.maxLat = latency
	}
	ep.buckets[bucketOf(latency)]++
	slotW := ep.obj.Window / burnSlots
	epoch := int64(now / slotW)
	s := &ep.slots[epoch%burnSlots]
	if s.epoch != epoch {
		s.epoch, s.good, s.bad = epoch, 0, 0
	}
	if good {
		s.good++
	} else {
		s.bad++
	}
	t.mu.Unlock()
}

// quantileLocked returns the conservative q-th latency percentile: the
// upper bound of the bucket holding the nearest-rank sample (the exact
// max for q hitting the last sample).
func (ep *endpoint) quantileLocked(q float64) time.Duration {
	if ep.total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(ep.total)))
	if rank < 1 {
		rank = 1
	}
	if rank >= ep.total {
		return ep.maxLat
	}
	var seen int64
	for b, n := range ep.buckets {
		seen += n
		if seen >= rank {
			hi := bucketHi(b)
			if hi > ep.maxLat {
				return ep.maxLat
			}
			return hi
		}
	}
	return ep.maxLat
}

// EndpointStatus is one endpoint's SLO snapshot.
type EndpointStatus struct {
	Endpoint           string  `json:"endpoint"`
	ObjectiveLatencyMs float64 `json:"objective_latency_ms"`
	Target             float64 `json:"target"`
	WindowSec          float64 `json:"window_sec"`

	Requests int64 `json:"requests"`
	// Errors are failed requests; Slow succeeded but missed the latency
	// objective. Both spend error budget.
	Errors int64 `json:"errors"`
	Slow   int64 `json:"slow"`
	// GoodFraction is the delivered objective so far (1 with no traffic).
	GoodFraction float64 `json:"good_fraction"`

	// Latency tail over the whole run, conservative (bucket upper bounds).
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`

	// BudgetRemaining is the unspent error budget: 1 untouched, 0
	// exhausted, negative overspent.
	BudgetRemaining float64 `json:"budget_remaining"`
	// BurnRate is the trailing-window bad-request rate over the allowed
	// rate: 1 spends exactly the budget, >1 burns it faster.
	BurnRate float64 `json:"burn_rate"`
}

// Status is a full tracker snapshot, endpoints in name order.
type Status struct {
	Endpoints []EndpointStatus `json:"endpoints"`
}

// Status snapshots every endpoint. Safe for concurrent use; deterministic
// given the same observation history and clock.
func (t *Tracker) Status() Status {
	if t == nil {
		return Status{}
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	st := Status{Endpoints: make([]EndpointStatus, 0, len(t.keys))}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, name := range t.keys {
		ep := t.eps[name]
		es := EndpointStatus{
			Endpoint:           name,
			ObjectiveLatencyMs: ms(ep.obj.Latency),
			Target:             ep.obj.Target,
			WindowSec:          ep.obj.Window.Seconds(),
			Requests:           ep.total,
			Errors:             ep.errors,
			Slow:               ep.slow,
			GoodFraction:       1,
			BudgetRemaining:    1,
			P50Ms:              ms(ep.quantileLocked(0.50)),
			P90Ms:              ms(ep.quantileLocked(0.90)),
			P99Ms:              ms(ep.quantileLocked(0.99)),
			P999Ms:             ms(ep.quantileLocked(0.999)),
			MaxMs:              ms(ep.maxLat),
		}
		if ep.total > 0 {
			bad := ep.errors + ep.slow
			es.GoodFraction = float64(ep.total-bad) / float64(ep.total)
			budget := 1 - ep.obj.Target
			es.BudgetRemaining = 1 - (float64(bad)/float64(ep.total))/budget
		}
		// Burn rate over the live trailing-window slots.
		slotW := ep.obj.Window / burnSlots
		epoch := int64(now / slotW)
		var wGood, wBad int64
		for _, s := range ep.slots {
			if s.epoch > epoch-burnSlots && s.epoch <= epoch {
				wGood += s.good
				wBad += s.bad
			}
		}
		if wGood+wBad > 0 {
			es.BurnRate = (float64(wBad) / float64(wGood+wBad)) / (1 - ep.obj.Target)
		}
		st.Endpoints = append(st.Endpoints, es)
	}
	return st
}
