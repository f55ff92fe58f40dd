// Package sim is a deterministic discrete-event simulation engine: a virtual
// clock, a cancellable event queue and seeded random-number streams. It is
// the substrate that replaces the paper's NS-2 runs and testbed time base.
//
// Determinism guarantees: events scheduled for the same instant fire in
// scheduling order (ties broken by a monotone sequence number), and every
// random stream is derived from the engine seed by name, so a run is fully
// reproducible from (seed, program).
package sim

import (
	"hash/fnv"
	"math/rand"
	"sync/atomic"
	"time"
)

// Event is a scheduled callback's queue slot. Events are pooled: once an
// event fires or is cancelled, its slot is recycled for a future Schedule, so
// the hot path allocates nothing in steady state. Callers never hold *Event
// directly — Schedule/After return a Handle that stays safe across recycling.
type Event struct {
	at    time.Duration
	seq   uint64
	fn    func()
	index int    // position in the heap, -1 once removed
	gen   uint64 // bumped on every recycle; stale Handles detect the mismatch
	tag   Tag    // attribution subsystem (tags.go), stamped at schedule time
	owner int32  // owning node, or NoOwner
}

// Handle identifies a scheduled event. The zero Handle is valid and inert:
// it is never Active and cancelling it is a no-op. A Handle outlives its
// event safely — once the event fires, is cancelled, or its slot is reused
// for a later Schedule, the generation counters no longer match and the
// Handle reports inactive.
type Handle struct {
	ev  *Event
	gen uint64
}

// Active reports whether the event is still pending in the queue.
func (h Handle) Active() bool { return h.ev != nil && h.ev.gen == h.gen }

// At returns the virtual time the event is scheduled for, or 0 if the
// handle is no longer active.
func (h Handle) At() time.Duration {
	if !h.Active() {
		return 0
	}
	return h.ev.at
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; simulations are deterministic single-goroutine programs.
//
// Exception: the virtual clock, the fired-event count and the amortized
// queue/pool mirrors are stored atomically, so Now, EventsFired,
// LivePending and LivePoolSize may be read from other goroutines (the live
// observability plane scrapes all of them mid-run). All scheduling and
// mutation must still happen on the simulation goroutine.
type Engine struct {
	now     atomic.Int64 // virtual time in nanoseconds
	queue   eventQueue
	seq     uint64
	seed    int64
	fired   atomic.Uint64
	free    []*Event // recycled event slots
	pending int      // queue length, maintained incrementally

	// Attribution context (tags.go): the tag/owner stamped on newly
	// scheduled events. Dispatch sets it from the firing event so derived
	// events inherit their scheduler's subsystem.
	curTag   Tag
	curOwner int32
	obs      Observer

	// Amortized mirrors of pending / len(free) for concurrent scrapers
	// (tags.go).
	livePending atomic.Int64
	livePool    atomic.Int64

	// Per-stream RNG draw counters for the audit plane (rngaudit.go);
	// nil unless EnableRNGAccounting was called before stream creation.
	rngCounts map[string]*uint64
}

// New returns an engine with its clock at zero, seeded with seed.
func New(seed int64) *Engine {
	return &Engine{seed: seed, curOwner: NoOwner}
}

// Seed returns the seed the engine was created with, for consumers that key
// their own counter-based draws with it instead of holding a stream.
func (e *Engine) Seed() int64 { return e.seed }

// Now returns the current virtual time. Safe for concurrent readers.
func (e *Engine) Now() time.Duration { return time.Duration(e.now.Load()) }

// EventsFired returns the number of events executed so far. Safe for
// concurrent readers.
func (e *Engine) EventsFired() uint64 { return e.fired.Load() }

// Schedule registers fn to run at absolute virtual time at. Times in the past
// are clamped to Now (the event runs as the next zero-delay event).
func (e *Engine) Schedule(at time.Duration, fn func()) Handle {
	if now := e.Now(); at < now {
		at = now
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.fn = at, e.seq, fn
	} else {
		ev = &Event{at: at, seq: e.seq, fn: fn}
	}
	ev.tag, ev.owner = e.curTag, e.curOwner
	e.seq++
	e.queue.push(ev)
	e.pending++
	return Handle{ev: ev, gen: ev.gen}
}

// After registers fn to run d after the current virtual time. Negative delays
// are clamped to zero.
func (e *Engine) After(d time.Duration, fn func()) Handle {
	return e.Schedule(e.Now()+d, fn)
}

// Cancel removes a pending event. Cancelling a zero Handle or one whose
// event already fired, was already cancelled, or whose slot has since been
// recycled is a no-op.
func (e *Engine) Cancel(h Handle) {
	if !h.Active() {
		return
	}
	e.queue.remove(h.ev.index)
	e.pending--
	e.recycle(h.ev)
}

// recycle invalidates outstanding handles to ev and returns its slot to the
// free list.
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.fn = nil
	e.free = append(e.free, ev)
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
//
// The event's slot is recycled before its callback runs, so handles to the
// firing event already report inactive inside the callback, and the slot may
// be reused by anything the callback schedules.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.pop()
	e.pending--
	fn := ev.fn
	at, tag, owner := ev.at, ev.tag, ev.owner
	e.curTag, e.curOwner = tag, owner
	e.now.Store(int64(at))
	e.recycle(ev)
	if e.fired.Add(1)&livePublishMask == 0 {
		e.publishLive()
	}
	if e.obs != nil {
		e.obs.OnEvent(at, tag, owner)
	}
	fn()
	return true
}

// RunUntil executes events in order until the queue holds no event at or
// before the deadline, then advances the clock to exactly the deadline.
// Events scheduled beyond the deadline remain pending.
func (e *Engine) RunUntil(deadline time.Duration) {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
	}
	if e.Now() < deadline {
		e.now.Store(int64(deadline))
	}
	e.publishLive()
}

// Run executes every pending event (including ones scheduled by other
// events) until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
	e.publishLive()
}

// Pending returns the number of events in the queue. O(1): cancellation
// removes events eagerly, so the queue never holds dead entries.
func (e *Engine) Pending() int { return e.pending }

// RNG returns a deterministic random stream derived from the engine seed and
// the stream name. Equal (seed, name) pairs always produce identical streams,
// so adding a new consumer does not perturb existing ones.
func (e *Engine) RNG(name string) *rand.Rand {
	src := rand.NewSource(e.streamSeed([]byte(name)))
	if e.rngCounts != nil {
		n := e.rngCounts[name]
		if n == nil {
			n = new(uint64)
			e.rngCounts[name] = n
		}
		src = wrapCounting(src, n)
	}
	return rand.New(src)
}

// streamSeed derives a named stream's seed: the engine seed XOR the name's
// FNV-1a hash (devirtualized by the compiler, so it does not allocate).
func (e *Engine) streamSeed(name []byte) int64 {
	h := fnv.New64a()
	h.Write(name)
	return e.seed ^ int64(h.Sum64())
}

// eventQueue is a binary min-heap of events ordered by (at, seq), with each
// event's index kept current so Cancel can remove it in O(log n). The sift
// logic is container/heap's, typed so no call boxes through an interface.
// (at, seq) is a total order (seq is unique), so the dispatch order does not
// depend on how the heap breaks ties internally.
type eventQueue []*Event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q eventQueue) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !q.less(j, i) {
			break
		}
		q.swap(i, j)
		j = i
	}
}

// down sifts q[i0] towards the leaves of q[:n] and reports whether it moved.
func (q eventQueue) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q.less(j2, j1) {
			j = j2 // right child
		}
		if !q.less(j, i) {
			break
		}
		q.swap(i, j)
		i = j
	}
	return i > i0
}

func (q *eventQueue) push(ev *Event) {
	ev.index = len(*q)
	*q = append(*q, ev)
	q.up(ev.index)
}

// pop removes and returns the minimum event.
func (q *eventQueue) pop() *Event {
	n := len(*q) - 1
	q.swap(0, n)
	q.down(0, n)
	return q.truncate()
}

// remove takes out the event at index i: swap it with the last slot, then
// restore the heap property there by sifting down or, failing that, up.
func (q *eventQueue) remove(i int) {
	n := len(*q) - 1
	if n != i {
		q.swap(i, n)
		if !q.down(i, n) {
			q.up(i)
		}
	}
	q.truncate()
}

// truncate drops and returns the last slot.
func (q *eventQueue) truncate() *Event {
	old := *q
	n := len(old) - 1
	ev := old[n]
	old[n] = nil
	ev.index = -1
	*q = old[:n]
	return ev
}
