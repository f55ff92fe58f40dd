package prof

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestAttributionCounts feeds a known event mix and checks the per-tag
// rollup: counts per tag, fixed tag order, zero rows included.
func TestAttributionCounts(t *testing.T) {
	p := New(Config{SampleEvery: 1, FlightEvents: -1})
	for i := 0; i < 5; i++ {
		p.OnEvent(time.Duration(i)*time.Microsecond, sim.TagMAC, 1)
	}
	p.OnEvent(time.Microsecond, sim.TagChannel, sim.NoOwner)
	p.OnEvent(time.Microsecond, sim.Tag(250), 0) // out of range -> other

	a := p.Attribution()
	if a.Events != 7 {
		t.Fatalf("Events = %d, want 7", a.Events)
	}
	if a.SampleEvery != 1 {
		t.Fatalf("SampleEvery = %d, want 1", a.SampleEvery)
	}
	if len(a.Tags) != int(sim.NumTags) {
		t.Fatalf("Tags rows = %d, want %d (zero rows included)", len(a.Tags), sim.NumTags)
	}
	byTag := make(map[string]TagStat)
	for i, ts := range a.Tags {
		if want := sim.Tag(i).String(); ts.Tag != want {
			t.Errorf("Tags[%d] = %q, want fixed order %q", i, ts.Tag, want)
		}
		byTag[ts.Tag] = ts
	}
	if byTag["mac"].Events != 5 || byTag["channel"].Events != 1 || byTag["other"].Events != 1 {
		t.Errorf("per-tag counts wrong: %+v", a.Tags)
	}
	if byTag["arq"].Events != 0 {
		t.Errorf("arq should be a zero row: %+v", byTag["arq"])
	}
	// Sampled every event: total share sums to ~100% when any time accrued.
	if a.SampledSec > 0 {
		var sum float64
		for _, ts := range a.Tags {
			sum += ts.SharePct
		}
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("shares sum to %.2f%%, want 100%%", sum)
		}
	}
	if p.Flight() != nil {
		t.Error("FlightEvents<0 must disable the recorder")
	}
}

// TestFlightPackUnpack round-trips records through the packed uint64 layout,
// including the owner sentinel and field extremes.
func TestFlightPackUnpack(t *testing.T) {
	cases := []struct {
		at    time.Duration
		tag   sim.Tag
		owner int32
	}{
		{0, sim.TagOther, sim.NoOwner},
		{time.Microsecond, sim.TagMAC, 0},
		{5 * time.Second, sim.TagChannel, 1},
		{24 * time.Hour, sim.TagFaults, 65534},
		{123456 * time.Microsecond, sim.TagLocx, sim.NoOwner},
	}
	for _, c := range cases {
		r := unpackRecord(packRecord(c.at, c.tag, c.owner))
		if r.AtUs != int64(c.at/time.Microsecond) {
			t.Errorf("pack(%v,%v,%d): AtUs = %d, want %d", c.at, c.tag, c.owner, r.AtUs, c.at/time.Microsecond)
		}
		if r.Tag != c.tag.String() {
			t.Errorf("pack(%v,%v,%d): Tag = %q, want %q", c.at, c.tag, c.owner, r.Tag, c.tag.String())
		}
		if r.Owner != c.owner {
			t.Errorf("pack(%v,%v,%d): Owner = %d, want %d", c.at, c.tag, c.owner, r.Owner, c.owner)
		}
	}
}

// TestFlightWrap fills the ring past capacity and checks it keeps exactly
// the newest records, oldest first.
func TestFlightWrap(t *testing.T) {
	f := NewFlight(16)
	const writes = 40
	for i := 0; i < writes; i++ {
		f.Record(time.Duration(i)*time.Microsecond, sim.TagMAC, int32(i))
	}
	if f.Total() != writes {
		t.Fatalf("Total = %d, want %d", f.Total(), writes)
	}
	snap := f.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("Snapshot len = %d, want 16", len(snap))
	}
	for i, r := range snap {
		if want := int64(writes - 16 + i); r.AtUs != want || r.Owner != int32(want) {
			t.Fatalf("Snapshot[%d] = %+v, want at/owner %d (newest 16, oldest first)", i, r, want)
		}
	}
}

// TestNewFlightRounding pins the capacity rounding: power of two, minimum 16.
func TestNewFlightRounding(t *testing.T) {
	for _, c := range []struct{ n, want int }{{0, 16}, {1, 16}, {16, 16}, {17, 32}, {4096, 4096}, {5000, 8192}} {
		if f := NewFlight(c.n); len(f.slots) != c.want {
			t.Errorf("NewFlight(%d) capacity = %d, want %d", c.n, len(f.slots), c.want)
		}
	}
}

// TestFlightConcurrentSnapshot races a recording writer against snapshot
// readers; run under -race this validates the lock-free access pattern.
func TestFlightConcurrentSnapshot(t *testing.T) {
	f := NewFlight(64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := f.Snapshot()
				if len(snap) > 64 {
					panic("snapshot exceeds capacity")
				}
				f.Total()
			}
		}()
	}
	for i := 0; i < 100000; i++ {
		f.Record(time.Duration(i)*time.Microsecond, sim.TagChannel, 3)
	}
	close(stop)
	wg.Wait()
	if f.Total() != 100000 {
		t.Fatalf("Total = %d, want 100000", f.Total())
	}
}

// TestDumpToWritesJSON checks the dump file layout and the reason
// sanitization in its name.
func TestDumpToWritesJSON(t *testing.T) {
	dir := t.TempDir()
	f := NewFlight(16)
	f.Record(3*time.Millisecond, sim.TagMAC, 2)
	f.Record(4*time.Millisecond, sim.TagFaults, sim.NoOwner)
	path, err := f.DumpTo(filepath.Join(dir, "sub"), "run7", "fault outage/1")
	if err != nil {
		t.Fatal(err)
	}
	if base := filepath.Base(path); base != "flight-run7-fault_outage_1-2.json" {
		t.Errorf("dump file name = %q (run id prefixed, reason sanitized, total appended)", base)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("dump not valid JSON: %v\n%s", err, data)
	}
	if d.Reason != "fault outage/1" || d.Total != 2 || len(d.Records) != 2 {
		t.Fatalf("dump = %+v", d)
	}
	if d.Records[0].Tag != "mac" || d.Records[1].Owner != -1 {
		t.Fatalf("records = %+v", d.Records)
	}
	if !strings.HasSuffix(string(data), "\n") {
		t.Error("dump file must end with a newline")
	}
}

// TestDumpFlightRunIDNamespacing pins the fix for same-process collisions:
// two profilers dumping the same reason and record count into one directory
// must produce two files, each named by its profiler's process-unique run id.
func TestDumpFlightRunIDNamespacing(t *testing.T) {
	dir := t.TempDir()
	dump := func(cfg Config) string {
		cfg.FlightEvents = 16
		cfg.Dir = dir
		p := New(cfg)
		p.OnEvent(time.Millisecond, sim.TagMAC, 1)
		path, err := p.DumpFlight("fault-outage")
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := dump(Config{})
	b := dump(Config{})
	if a == b {
		t.Fatalf("default run ids collided: both dumps landed at %s", a)
	}
	for _, p := range []string{a, b} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("dump missing: %v", err)
		}
	}
	want := regexp.MustCompile(`^flight-run[0-9]+-fault-outage-1\.json$`)
	for _, p := range []string{a, b} {
		if !want.MatchString(filepath.Base(p)) {
			t.Errorf("dump name = %q, want flight-run<N>-fault-outage-1.json", filepath.Base(p))
		}
	}
}

// TestDumpFlightNilSafe locks in the no-op contract for absent profilers and
// disabled recorders.
func TestDumpFlightNilSafe(t *testing.T) {
	var p *Profiler
	if path, err := p.DumpFlight("panic"); path != "" || err != nil {
		t.Fatalf("nil profiler DumpFlight = (%q, %v), want no-op", path, err)
	}
	p = New(Config{FlightEvents: -1, Dir: t.TempDir()})
	if path, err := p.DumpFlight("panic"); path != "" || err != nil {
		t.Fatalf("recorder-less DumpFlight = (%q, %v), want no-op", path, err)
	}
}

// TestSampleEveryStride checks wall-time sampling only fires on the stride.
func TestSampleEveryStride(t *testing.T) {
	p := New(Config{SampleEvery: 4, FlightEvents: -1})
	for i := 0; i < 3; i++ {
		p.OnEvent(0, sim.TagMAC, 0)
	}
	if a := p.Attribution(); a.SampledSec != 0 {
		t.Fatalf("SampledSec = %g before the stride, want 0", a.SampledSec)
	}
	p.OnEvent(0, sim.TagMAC, 0) // 4th event samples
	if a := p.Attribution(); a.Tags[sim.TagMAC].SampledSec <= 0 {
		t.Fatalf("no wall time charged on the stride: %+v", a.Tags[sim.TagMAC])
	}
}
