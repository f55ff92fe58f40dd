package metrics

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestSnapshotConcurrentWithWriters locks in the live-scrape guarantee: a
// serving HTTP endpoint calls Registry.Snapshot from its own goroutines
// while the simulation goroutine keeps writing counters, timings, state
// clocks and the engine sampler keeps appending series. Run under -race in
// CI.
func TestSnapshotConcurrentWithWriters(t *testing.T) {
	eng := sim.New(1)
	reg := NewRegistry()
	c := reg.Counter("tx.data")
	g := reg.Gauge("queue.len")
	d := reg.Dist("window.occupancy")
	tm := reg.Timing("mac.access_latency")
	clock := reg.StateClock("mac", eng.Now, "idle")

	// The "simulation": one event per 100 µs for 200 ms of virtual time,
	// each touching every instrument class, with the sampler ticking at
	// 1 ms.
	sampler := NewSampler(eng, time.Millisecond)
	ser := sampler.Track(func() float64 { return float64(c.Value()) })
	sampler.Start()
	states := []string{"tx", "busy", "idle", "backoff"}
	var tick func()
	i := 0
	tick = func() {
		c.Inc()
		g.Set(float64(i % 7))
		d.Observe(float64(i % 13))
		tm.Observe(time.Duration(i%900) * time.Microsecond)
		clock.Set(states[i%len(states)])
		i++
		eng.After(100*time.Microsecond, tick)
	}
	eng.After(0, tick)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := reg.Snapshot()
				if _, err := json.Marshal(snap); err != nil {
					t.Errorf("marshal snapshot: %v", err)
					return
				}
				// The Prometheus path shares the scrape surface.
				pw := NewPromWriter()
				pw.Add(map[string]string{"source": "s"}, snap)
				// Series reads race with sampler appends without locking.
				ser.Samples()
				// Instrument-level reads used by /healthz and /runs.
				c.Value()
				clock.Breakdown()
			}
		}()
	}

	eng.RunUntil(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	snap := reg.Snapshot()
	if snap.Counters["tx.data"] != int64(i) {
		t.Fatalf("counter = %d, want %d", snap.Counters["tx.data"], i)
	}
	if snap.Timings["mac.access_latency"].N != i {
		t.Fatalf("timing N = %d, want %d", snap.Timings["mac.access_latency"].N, i)
	}
	if len(ser.at) != 200 {
		t.Fatalf("sampler ticks = %d, want 200", len(ser.at))
	}
}

// TestStateClockBreakdownMidState is the live-scrape shape: reading
// Breakdown while the clock is mid-state must charge the open interval up
// to "now" without mutating the clock, and the buckets must keep summing to
// the elapsed time.
func TestStateClockBreakdownMidState(t *testing.T) {
	now := time.Duration(0)
	clk := newStateClock(func() time.Duration { return now }, "idle")

	now = 10 * time.Millisecond
	clk.Set("tx")
	now = 25 * time.Millisecond // 15 ms into the open "tx" interval

	b := clk.Breakdown()
	if b["idle"] != 10*time.Millisecond {
		t.Fatalf("idle = %v, want 10ms", b["idle"])
	}
	if b["tx"] != 15*time.Millisecond {
		t.Fatalf("open tx interval = %v, want 15ms", b["tx"])
	}
	var sum time.Duration
	for _, d := range b {
		sum += d
	}
	if sum != now {
		t.Fatalf("breakdown sums to %v, want %v", sum, now)
	}

	// The read must not have closed the interval: advancing the clock and
	// reading again shows the same open state, grown.
	now = 40 * time.Millisecond
	if clk.state != "tx" {
		t.Fatalf("state = %q after Breakdown, want tx", clk.state)
	}
	b2 := clk.Breakdown()
	if b2["tx"] != 30*time.Millisecond {
		t.Fatalf("tx after growth = %v, want 30ms", b2["tx"])
	}
}
