package sim

import (
	"testing"
	"time"
)

// recordObs records every dispatched event for assertions.
type recordObs struct {
	events []obsEvent
}

type obsEvent struct {
	at    time.Duration
	tag   Tag
	owner int32
}

func (r *recordObs) OnEvent(at time.Duration, tag Tag, owner int32) {
	r.events = append(r.events, obsEvent{at, tag, owner})
}

// TestObserverSeesEveryEvent checks the observer hook fires once per
// dispatched event with the stamped attribution.
func TestObserverSeesEveryEvent(t *testing.T) {
	e := New(1)
	obs := &recordObs{}
	e.SetObserver(obs)
	e.AfterTagged(time.Millisecond, TagMAC, 3, func() {})
	e.AfterTagged(2*time.Millisecond, TagChannel, NoOwner, func() {})
	e.After(3*time.Millisecond, func() {}) // untagged -> other/NoOwner
	e.Run()
	want := []obsEvent{
		{time.Millisecond, TagMAC, 3},
		{2 * time.Millisecond, TagChannel, NoOwner},
		{3 * time.Millisecond, TagOther, NoOwner},
	}
	if len(obs.events) != len(want) {
		t.Fatalf("observed %d events, want %d: %+v", len(obs.events), len(want), obs.events)
	}
	for i, w := range want {
		if obs.events[i] != w {
			t.Errorf("event %d = %+v, want %+v", i, obs.events[i], w)
		}
	}
}

// TestTagInheritance is the core attribution contract: events scheduled from
// inside a tagged event's callback inherit its tag and owner, transitively,
// until an explicit *Tagged call overrides them.
func TestTagInheritance(t *testing.T) {
	e := New(1)
	obs := &recordObs{}
	e.SetObserver(obs)
	e.AfterTagged(time.Millisecond, TagMAC, 7, func() {
		e.After(time.Millisecond, func() { // inherits mac/7
			e.After(time.Millisecond, func() {}) // still mac/7
			e.AfterTagged(2*time.Millisecond, TagComap, 9, func() {
				e.After(time.Millisecond, func() {}) // comap/9
			})
		})
	})
	e.Run()
	want := []obsEvent{
		{1 * time.Millisecond, TagMAC, 7},
		{2 * time.Millisecond, TagMAC, 7},
		{3 * time.Millisecond, TagMAC, 7},
		{4 * time.Millisecond, TagComap, 9},
		{5 * time.Millisecond, TagComap, 9},
	}
	if len(obs.events) != len(want) {
		t.Fatalf("observed %+v, want %+v", obs.events, want)
	}
	for i, w := range want {
		if obs.events[i] != w {
			t.Errorf("event %d = %+v, want %+v", i, obs.events[i], w)
		}
	}
}

// TestScheduleTaggedRestoresContext checks the explicit-tag window closes:
// scheduling after an AfterTagged call (but within the same callback) uses
// the enclosing dispatch context again.
func TestScheduleTaggedRestoresContext(t *testing.T) {
	e := New(1)
	obs := &recordObs{}
	e.SetObserver(obs)
	e.AfterTagged(time.Millisecond, TagTraffic, 2, func() {
		e.AfterTagged(time.Millisecond, TagLocx, 5, func() {})
		if tag, owner := e.Context(); tag != TagTraffic || owner != 2 {
			t.Errorf("Context after AfterTagged = (%v, %d), want (traffic, 2)", tag, owner)
		}
		e.After(2*time.Millisecond, func() {}) // back to traffic/2
	})
	e.Run()
	want := []obsEvent{
		{1 * time.Millisecond, TagTraffic, 2},
		{2 * time.Millisecond, TagLocx, 5},
		{3 * time.Millisecond, TagTraffic, 2},
	}
	for i, w := range want {
		if obs.events[i] != w {
			t.Errorf("event %d = %+v, want %+v", i, obs.events[i], w)
		}
	}
}

// TestTagNamesStable pins the attribution names: they are part of the
// attribution schema (/profile, comap-sim -profile-out).
func TestTagNamesStable(t *testing.T) {
	want := map[Tag]string{
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
	for tag, name := range want {
		if got := tag.String(); got != name {
			t.Errorf("Tag(%d).String() = %q, want %q", tag, got, name)
		}
	}
	if got := Tag(200).String(); got != "other" {
		t.Errorf("out-of-range tag String() = %q, want other", got)
	}
	for tag := Tag(0); tag < NumTags; tag++ {
		if tagNames[tag] == "" {
			t.Errorf("tag %d has no name", tag)
		}
	}
}

// TestLiveGaugesPublished checks the amortized queue/pool mirror: the gauges
// are refreshed at least every livePublishMask+1 dispatches and at Run exit,
// and are safe for a concurrent reader.
func TestLiveGaugesPublished(t *testing.T) {
	e := New(1)
	const events = 4 * (livePublishMask + 1)
	for i := 0; i < events; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, func() {})
	}
	done := make(chan struct{})
	go func() { // concurrent scraper; -race validates the access pattern
		defer close(done)
		for i := 0; i < 100; i++ {
			if e.LivePending() < 0 || e.LivePoolSize() < 0 {
				panic("negative live gauge")
			}
		}
	}()
	midSeen := false
	e.Schedule(time.Duration(events/2)*time.Microsecond, func() {
		midSeen = e.LivePending() > 0
	})
	e.Run()
	<-done
	if !midSeen {
		t.Error("LivePending stayed 0 mid-run")
	}
	if got := e.LivePending(); got != 0 {
		t.Errorf("LivePending after Run = %d, want 0", got)
	}
	if got, want := e.LivePoolSize(), e.PoolSize(); got != want {
		t.Errorf("LivePoolSize after Run = %d, want PoolSize %d", got, want)
	}
	if e.LivePoolSize() == 0 {
		t.Error("event pool empty after recycling thousands of events")
	}
}
