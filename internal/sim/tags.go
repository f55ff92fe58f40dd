package sim

import "time"

// Tag identifies the subsystem an event is charged to by the attribution
// profiler (internal/prof). Tags are stamped on events at schedule time:
// either explicitly through ScheduleTagged/AfterTagged, or inherited from
// the event whose callback performed the scheduling, so chains of derived
// events stay attributed to the subsystem that started them.
type Tag uint8

// The fixed subsystem tag set. Adding a tag here automatically adds it to
// attribution reports and the comap_prof_* metric families.
const (
	// TagOther is the default for events scheduled outside any tagged
	// context (test harnesses, ad-hoc engine use).
	TagOther Tag = iota
	// TagMAC covers the DCF state machine's timers: backoff slots, DIFS/EIFS
	// defers, NAV expiry, SIFS responses and ACK/CTS timeouts.
	TagMAC
	// TagChannel covers the medium's transmission lifecycle: airtime-end
	// delivery and early header-indication events.
	TagChannel
	// TagComap covers CO-MAP stations' stream machinery: the shared
	// traffic driver's CBR credit ticks and everything they chain.
	TagComap
	// TagARQ is reserved for the selective-repeat layer's own timers. The
	// current ARQ implementation runs synchronously inside mac/comap events,
	// so this tag reads zero unless a future ARQ grows retransmission
	// timers of its own.
	TagARQ
	// TagTraffic covers DCF stations' stream machinery: the shared traffic
	// driver's CBR credit ticks and everything they chain.
	TagTraffic
	// TagLocx covers the location input plane: in-band beacon ticks and the
	// location registry's report pipeline (delays, heartbeats).
	TagLocx
	// TagSampler covers the metrics sampler's periodic probe ticks.
	TagSampler
	// TagFaults covers the fault injector's window open/close schedule.
	TagFaults

	// NumTags is the size of the tag space (always last).
	NumTags
)

// tagNames indexes Tag -> stable attribution name. The names are part of
// the attribution schema (/profile, comap-sim -profile-out); do not rename
// casually.
var tagNames = [NumTags]string{
	TagOther:   "other",
	TagMAC:     "mac",
	TagChannel: "channel",
	TagComap:   "comap",
	TagARQ:     "arq",
	TagTraffic: "traffic",
	TagLocx:    "locx",
	TagSampler: "metrics-sampler",
	TagFaults:  "faults",
}

// String returns the tag's stable attribution name.
func (t Tag) String() string {
	if t < NumTags {
		return tagNames[t]
	}
	return "other"
}

// NoOwner marks an event with no owning node (medium-wide or run-wide
// timers).
const NoOwner int32 = -1

// Observer receives a notification for every dispatched event. It is the
// hook the attribution profiler and flight recorder hang off: OnEvent runs
// on the simulation goroutine inside the dispatch loop, so implementations
// must be allocation-free and must never call back into the engine.
type Observer interface {
	OnEvent(at time.Duration, tag Tag, owner int32)
}

// SetObserver installs the dispatch observer (nil disables). Call before
// the run; the engine takes one branch per event when no observer is set.
func (e *Engine) SetObserver(o Observer) { e.obs = o }

// ScheduleTagged is Schedule with an explicit attribution context: the event
// (and, transitively, events its callback schedules without their own tag)
// is charged to tag/owner instead of inheriting the dispatch context.
func (e *Engine) ScheduleTagged(at time.Duration, tag Tag, owner int32, fn func()) Handle {
	prevTag, prevOwner := e.curTag, e.curOwner
	e.curTag, e.curOwner = tag, owner
	h := e.Schedule(at, fn)
	e.curTag, e.curOwner = prevTag, prevOwner
	return h
}

// AfterTagged is After with an explicit attribution context.
func (e *Engine) AfterTagged(d time.Duration, tag Tag, owner int32, fn func()) Handle {
	return e.ScheduleTagged(e.Now()+d, tag, owner, fn)
}

// Context returns the current attribution context: the tag/owner of the
// event being dispatched (or the values set by an enclosing
// ScheduleTagged). Exposed for tests and instrumentation.
func (e *Engine) Context() (Tag, int32) { return e.curTag, e.curOwner }

// livePublishMask amortizes the live-gauge mirror: queue length and event-
// pool size are published to atomics every (mask+1) dispatched events, so
// the hot loop pays a masked branch instead of two atomic stores per event.
const livePublishMask = 1023

// publishLive mirrors the queue length and free-list size into atomics for
// concurrent scrapers. Simulation goroutine only.
func (e *Engine) publishLive() {
	e.livePending.Store(int64(e.pending))
	e.livePool.Store(int64(len(e.free)))
}

// LivePending returns the engine's queue length as last published (every
// 1024 dispatches and at the end of Run/RunUntil). Safe for concurrent
// readers; the value lags the sim goroutine's O(1) Pending by at most one
// publish interval.
func (e *Engine) LivePending() int { return int(e.livePending.Load()) }

// LivePoolSize returns the recycled-event free-list size as last published.
// Safe for concurrent readers. A pool that grows without bound while
// LivePending stays flat is the signature of an event leak.
func (e *Engine) LivePoolSize() int { return int(e.livePool.Load()) }

// PoolSize returns the current free-list size. Simulation goroutine only
// (concurrent readers must use LivePoolSize).
func (e *Engine) PoolSize() int { return len(e.free) }
