package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := New(1)
	var order []int
	e.Schedule(30*time.Microsecond, func() { order = append(order, 3) })
	e.Schedule(10*time.Microsecond, func() { order = append(order, 1) })
	e.Schedule(20*time.Microsecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 30*time.Microsecond {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(order) {
		t.Errorf("same-time events out of scheduling order: %v", order)
	}
}

func TestAfterRelative(t *testing.T) {
	e := New(1)
	var at time.Duration
	e.Schedule(5*time.Second, func() {
		e.After(2*time.Second, func() { at = e.Now() })
	})
	e.Run()
	if at != 7*time.Second {
		t.Errorf("nested After fired at %v, want 7s", at)
	}
}

func TestPastScheduleClampsToNow(t *testing.T) {
	e := New(1)
	var at time.Duration
	e.Schedule(10*time.Second, func() {
		e.Schedule(time.Second, func() { at = e.Now() }) // in the past
	})
	e.Run()
	if at != 10*time.Second {
		t.Errorf("past event fired at %v, want clamp to 10s", at)
	}
	if e.EventsFired() != 2 {
		t.Errorf("fired = %d", e.EventsFired())
	}
}

func TestNegativeAfterClamps(t *testing.T) {
	e := New(1)
	fired := false
	e.After(-time.Second, func() { fired = true })
	e.Run()
	if !fired || e.Now() != 0 {
		t.Errorf("fired=%v now=%v", fired, e.Now())
	}
}

func TestCancel(t *testing.T) {
	e := New(1)
	fired := false
	ev := e.After(time.Second, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if ev.Active() {
		t.Error("Active() should be false after cancel")
	}
	// Double cancel and zero-handle cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(Handle{})
}

func TestCancelFromWithinEvent(t *testing.T) {
	e := New(1)
	fired := false
	var victim Handle
	e.Schedule(time.Second, func() { e.Cancel(victim) })
	victim = e.Schedule(2*time.Second, func() { fired = true })
	e.Run()
	if fired {
		t.Error("event cancelled mid-run still fired")
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4} {
		d := d * time.Second
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(2500 * time.Millisecond)
	if len(fired) != 2 {
		t.Errorf("fired %v events, want 2", fired)
	}
	if e.Now() != 2500*time.Millisecond {
		t.Errorf("Now = %v, want deadline", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("Pending = %d", e.Pending())
	}
	e.RunUntil(10 * time.Second)
	if len(fired) != 4 {
		t.Errorf("after second RunUntil fired = %v", fired)
	}
}

func TestRunUntilExactDeadlineInclusive(t *testing.T) {
	e := New(1)
	fired := false
	e.Schedule(time.Second, func() { fired = true })
	e.RunUntil(time.Second)
	if !fired {
		t.Error("event exactly at deadline should fire")
	}
}

func TestClockNeverGoesBackwards(t *testing.T) {
	f := func(delaysRaw []uint16, seed int64) bool {
		e := New(seed)
		last := time.Duration(-1)
		ok := true
		for _, d := range delaysRaw {
			e.Schedule(time.Duration(d)*time.Microsecond, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed int64) []time.Duration {
		e := New(seed)
		rng := e.RNG("traffic")
		var fired []time.Duration
		var schedule func()
		n := 0
		schedule = func() {
			if n >= 50 {
				return
			}
			n++
			fired = append(fired, e.Now())
			e.After(time.Duration(rng.Intn(1000))*time.Microsecond, schedule)
		}
		e.After(0, schedule)
		e.Run()
		return fired
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	e := New(99)
	a := e.RNG("channel")
	b := e.RNG("traffic")
	c := e.RNG("channel")
	av := []int{a.Intn(1000), a.Intn(1000), a.Intn(1000)}
	cv := []int{c.Intn(1000), c.Intn(1000), c.Intn(1000)}
	for i := range av {
		if av[i] != cv[i] {
			t.Fatal("same-name streams must be identical")
		}
	}
	bv := []int{b.Intn(1000), b.Intn(1000), b.Intn(1000)}
	if av[0] == bv[0] && av[1] == bv[1] && av[2] == bv[2] {
		t.Error("different-name streams look identical")
	}
}

func TestEventAt(t *testing.T) {
	e := New(1)
	ev := e.Schedule(3*time.Second, func() {})
	if ev.At() != 3*time.Second {
		t.Errorf("At = %v", ev.At())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := New(1)
	if e.Step() {
		t.Error("Step on empty queue should be false")
	}
	ev := e.After(time.Second, func() {})
	e.Cancel(ev)
	if e.Step() {
		t.Error("Step with only cancelled events should be false")
	}
}

func TestManyEventsStress(t *testing.T) {
	e := New(5)
	rng := rand.New(rand.NewSource(5))
	const n = 20000
	fired := 0
	for i := 0; i < n; i++ {
		e.Schedule(time.Duration(rng.Intn(1_000_000))*time.Microsecond, func() { fired++ })
	}
	e.Run()
	if fired != n {
		t.Errorf("fired = %d, want %d", fired, n)
	}
	if e.Pending() != 0 {
		t.Errorf("pending = %d", e.Pending())
	}
}

func TestSeedAccessor(t *testing.T) {
	if New(42).Seed() != 42 {
		t.Error("Seed accessor")
	}
}

func TestPendingAfterCancel(t *testing.T) {
	e := New(1)
	a := e.After(time.Second, func() {})
	e.After(2*time.Second, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	e.Cancel(a)
	if e.Pending() != 1 {
		t.Errorf("Pending after cancel = %d", e.Pending())
	}
}

func TestCancelPropertyNeverFires(t *testing.T) {
	f := func(delays []uint16, cancelMask []bool) bool {
		e := New(3)
		fired := make(map[int]bool)
		events := make([]Handle, len(delays))
		for i, d := range delays {
			i := i
			events[i] = e.Schedule(time.Duration(d)*time.Microsecond, func() { fired[i] = true })
		}
		for i := range events {
			if i < len(cancelMask) && cancelMask[i] {
				e.Cancel(events[i])
			}
		}
		e.Run()
		for i := range events {
			cancelled := i < len(cancelMask) && cancelMask[i]
			if cancelled == fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRunUntilThenRunDrains(t *testing.T) {
	e := New(1)
	count := 0
	for i := 1; i <= 5; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() { count++ })
	}
	e.RunUntil(2 * time.Second)
	if count != 2 {
		t.Fatalf("count = %d", count)
	}
	e.Run()
	if count != 5 {
		t.Errorf("after Run count = %d", count)
	}
}

func TestStaleHandleAfterFire(t *testing.T) {
	e := New(1)
	h := e.After(time.Second, func() {})
	if !h.Active() {
		t.Fatal("handle should be active before firing")
	}
	e.Run()
	if h.Active() {
		t.Error("handle should be inactive after firing")
	}
	if h.At() != 0 {
		t.Errorf("stale At = %v, want 0", h.At())
	}
	// Cancelling a fired handle is a no-op even though its slot is free.
	e.Cancel(h)
	if e.Pending() != 0 {
		t.Errorf("Pending = %d", e.Pending())
	}
}

func TestStaleHandleDoesNotCancelRecycledSlot(t *testing.T) {
	e := New(1)
	// Fire one event so its slot lands on the free list, then schedule a
	// new one that reuses the slot. The stale handle must not cancel it.
	old := e.After(time.Second, func() {})
	e.Run()
	fired := false
	fresh := e.After(time.Second, func() { fired = true })
	if old.Active() {
		t.Fatal("old handle claims to be active")
	}
	e.Cancel(old)
	if !fresh.Active() {
		t.Fatal("stale cancel killed the recycled slot's new event")
	}
	e.Run()
	if !fired {
		t.Error("recycled event did not fire")
	}
}

func TestHandleInactiveInsideOwnCallback(t *testing.T) {
	e := New(1)
	var h Handle
	activeInside := true
	h = e.After(time.Second, func() { activeInside = h.Active() })
	e.Run()
	if activeInside {
		t.Error("handle should report inactive inside its own callback")
	}
}

func TestEventSlotsAreRecycled(t *testing.T) {
	e := New(1)
	// Steady-state schedule/fire churn must plateau the free list at the
	// max concurrent depth, i.e. slots really are reused.
	for i := 0; i < 1000; i++ {
		e.After(time.Duration(i)*time.Microsecond, func() {})
	}
	e.Run()
	if got := len(e.free); got != 1000 {
		t.Fatalf("free list = %d slots, want 1000", got)
	}
	for i := 0; i < 1000; i++ {
		e.After(time.Duration(i)*time.Microsecond, func() {})
	}
	if got := len(e.free); got != 0 {
		t.Errorf("free list = %d slots after rescheduling, want 0 (slots reused)", got)
	}
	e.Run()
}

func TestPendingIncrementalMatchesQueue(t *testing.T) {
	e := New(9)
	rng := rand.New(rand.NewSource(9))
	var handles []Handle
	for i := 0; i < 500; i++ {
		handles = append(handles, e.Schedule(time.Duration(rng.Intn(1000))*time.Microsecond, func() {}))
	}
	cancelled := 0
	for i, h := range handles {
		if i%3 == 0 {
			e.Cancel(h)
			cancelled++
		}
	}
	if e.Pending() != len(handles)-cancelled {
		t.Fatalf("Pending = %d, want %d", e.Pending(), len(handles)-cancelled)
	}
	if e.Pending() != len(e.queue) {
		t.Fatalf("Pending = %d but queue holds %d", e.Pending(), len(e.queue))
	}
	e.Run()
	if e.Pending() != 0 {
		t.Errorf("Pending after drain = %d", e.Pending())
	}
}

// TestQueueMatchesSortedReference drives random interleavings of Schedule,
// Cancel (of the root, the last heap slot, a random pending event or a dead
// handle) and Step, with many events sharing an instant, and checks every
// dispatch against a reference that always fires the pending event with the
// least (at, seq). Pending and the heap's index bookkeeping are checked
// after every operation.
func TestQueueMatchesSortedReference(t *testing.T) {
	type ref struct {
		at  time.Duration
		seq int
		h   Handle
	}
	for trial := int64(0); trial < 20; trial++ {
		rng := rand.New(rand.NewSource(trial))
		e := New(trial)
		var pending []ref // reference queue, unordered
		var dead []Handle
		fired := -1
		seq := 0
		removeRef := func(i int) ref {
			r := pending[i]
			pending[i] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			return r
		}
		for op := 0; op < 3000; op++ {
			switch k := rng.Intn(10); {
			case k < 5: // schedule, often at an instant already taken
				at := e.Now() + time.Duration(rng.Intn(4)-1)*time.Microsecond
				id := seq
				h := e.Schedule(at, func() { fired = id })
				if at < e.Now() {
					at = e.Now()
				}
				pending = append(pending, ref{at: at, seq: seq, h: h})
				seq++
			case k < 7 && len(pending) > 0: // cancel root, last slot or any
				var target *Event
				switch rng.Intn(3) {
				case 0:
					target = e.queue[0]
				case 1:
					target = e.queue[len(e.queue)-1]
				}
				i := rng.Intn(len(pending))
				if target != nil {
					for j, r := range pending {
						if r.h.ev == target {
							i = j
						}
					}
				}
				r := removeRef(i)
				e.Cancel(r.h)
				dead = append(dead, r.h)
			case k < 8 && len(dead) > 0: // dead handles are inert
				e.Cancel(dead[rng.Intn(len(dead))])
			default:
				if len(pending) == 0 {
					if e.Step() {
						t.Fatalf("trial %d op %d: Step fired on an empty queue", trial, op)
					}
					continue
				}
				min := 0
				for j, r := range pending {
					if r.at < pending[min].at || (r.at == pending[min].at && r.seq < pending[min].seq) {
						min = j
					}
				}
				want := removeRef(min)
				if !e.Step() || fired != want.seq || e.Now() != want.at {
					t.Fatalf("trial %d op %d: fired %d at %v, want %d at %v", trial, op, fired, e.Now(), want.seq, want.at)
				}
				dead = append(dead, want.h)
			}
			if e.Pending() != len(pending) || len(e.queue) != len(pending) {
				t.Fatalf("trial %d op %d: Pending %d, heap %d, want %d", trial, op, e.Pending(), len(e.queue), len(pending))
			}
			for i, ev := range e.queue {
				if ev.index != i {
					t.Fatalf("trial %d op %d: slot %d holds index %d", trial, op, i, ev.index)
				}
				if i > 0 && e.queue.less(i, (i-1)/2) {
					t.Fatalf("trial %d op %d: slot %d sorts before its parent", trial, op, i)
				}
			}
		}
	}
}
