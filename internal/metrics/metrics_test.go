package metrics

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	g := r.Gauge("g")
	g.Set(2)
	if g.Value() != 0 {
		t.Fatalf("nil gauge value = %v", g.Value())
	}
	d := r.Dist("d")
	d.Observe(5)
	tm := r.Timing("t")
	tm.Observe(time.Millisecond)
	if d != nil || tm != nil {
		t.Fatal("nil registry handed out a dist or timing")
	}
	sc := r.StateClock("c", func() time.Duration { return 0 }, "idle")
	sc.Set("busy")
	if sc.Breakdown() != nil {
		t.Fatal("nil state clock recorded")
	}
	snap := r.Snapshot()
	if snap.Counters != nil || snap.Timings != nil {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("a")
	a.Inc()
	if got := r.Counter("a").Value(); got != 1 {
		t.Fatalf("counter not shared: %d", got)
	}
	if r.Gauge("g") != r.Gauge("g") || r.Dist("d") != r.Dist("d") || r.Timing("t") != r.Timing("t") {
		t.Fatal("instruments not shared by name")
	}
	if c := r.Snapshot().Counters; len(c) != 1 || c["a"] != 1 {
		t.Fatalf("counters = %v, want only a=1", c)
	}
	now := func() time.Duration { return 0 }
	allocs := testing.AllocsPerRun(100, func() {
		r.Counter("a")
		r.Gauge("g")
		r.Dist("d")
		r.TimingBuckets("t", 0, time.Second, 10)
		r.StateClock("c", now, "idle")
	})
	if allocs != 0 {
		t.Fatalf("get-or-create hit allocates %v times, want 0", allocs)
	}
}

func TestTimingPercentiles(t *testing.T) {
	r := NewRegistry()
	tm := r.Timing("lat")
	for i := 1; i <= 100; i++ {
		tm.Observe(time.Duration(i) * time.Millisecond)
	}
	snap := tm.snapshot()
	if snap.N != 100 || snap.MaxMs != 100 {
		t.Fatalf("N = %d, max = %v ms", snap.N, snap.MaxMs)
	}
	if snap.P50Ms != 50 || snap.P90Ms != 90 || snap.P99Ms != 99 {
		t.Fatalf("snapshot percentiles: %+v", snap)
	}
	total := snap.Under + snap.Over
	for _, b := range snap.Buckets {
		total += b.Count
	}
	if total != 100 {
		t.Fatalf("bucket counts sum to %d", total)
	}
}

func TestStateClockSumsToElapsed(t *testing.T) {
	now := time.Duration(0)
	clock := func() time.Duration { return now }
	r := NewRegistry()
	sc := r.StateClock("mac", clock, "idle")

	now = 10 * time.Millisecond
	sc.Set("tx")
	now = 25 * time.Millisecond
	sc.Set("idle")
	now = 30 * time.Millisecond
	sc.Set("idle") // no-op transition
	now = 40 * time.Millisecond

	if got := sc.Breakdown()["tx"]; got != 15*time.Millisecond {
		t.Fatalf("tx = %v", got)
	}
	if got := sc.Breakdown()["idle"]; got != 25*time.Millisecond {
		t.Fatalf("idle = %v", got)
	}
	var total time.Duration
	for _, d := range sc.Breakdown() {
		total += d
	}
	if total != now {
		t.Fatalf("breakdown sums to %v, elapsed %v", total, now)
	}
	// Breakdown must not mutate the clock.
	if got := sc.Breakdown()["idle"]; got != 25*time.Millisecond {
		t.Fatalf("idle after Breakdown = %v", got)
	}
}

// TestStateClockKeysAndAllocs pins what Breakdown lists — every state ever
// left (even after zero time in it) plus the current one, never a state
// not yet entered — and that switching among seen states allocates nothing.
func TestStateClockKeysAndAllocs(t *testing.T) {
	now := time.Duration(0)
	sc := newStateClock(func() time.Duration { return now }, "idle")
	sc.Set("tx") // leaves "idle" after zero time
	now = 5 * time.Millisecond
	b := sc.Breakdown()
	if len(b) != 2 || b["idle"] != 0 || b["tx"] != 5*time.Millisecond {
		t.Fatalf("breakdown = %v, want idle:0 tx:5ms", b)
	}
	if _, ok := sc.Breakdown()["busy"]; ok || sc.Breakdown()["busy"] != 0 {
		t.Fatal("a state never entered shows in the breakdown")
	}
	states := []string{"idle", "tx", "busy", "wait"}
	for _, st := range states {
		sc.Set(st)
	}
	k := 0
	if n := testing.AllocsPerRun(100, func() {
		now += time.Microsecond
		k++
		sc.Set(states[k%len(states)])
	}); n != 0 {
		t.Errorf("Set between seen states allocates %v times, want 0", n)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 7; i++ {
		r.Counter("tx").Inc()
	}
	r.Gauge("cw").Set(32)
	r.Dist("occ").Observe(3)
	r.Timing("lat").Observe(2 * time.Millisecond)
	now := time.Duration(0)
	r.StateClock("mac", func() time.Duration { return now }, "idle")
	now = 5 * time.Millisecond

	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Counters["tx"] != 7 || back.Gauges["cw"] != 32 {
		t.Fatalf("round trip: %+v", back)
	}
	if math.Abs(back.AirtimeSec["mac"]["idle"]-0.005) > 1e-9 {
		t.Fatalf("airtime: %+v", back.AirtimeSec)
	}
}

func TestSamplerTicks(t *testing.T) {
	eng := sim.New(1)
	s := NewSampler(eng, 100*time.Millisecond)
	v := 0.0
	// The probe counts its own calls: one per tick.
	ser := s.Track(func() float64 { v++; return v - 1 })
	s.Start()
	s.Start() // idempotent
	eng.RunUntil(time.Second)
	if len(ser.at) != 10 {
		t.Fatalf("samples = %d, want 10", len(ser.at))
	}
	at, values := ser.Samples()
	if at[0] != 100*time.Millisecond || at[9] != time.Second {
		t.Fatalf("sample times: %v", at)
	}
	if values[0] != 0 || values[9] != 9 {
		t.Fatalf("sample values: %v", values)
	}
}
