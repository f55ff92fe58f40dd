package sim

import (
	"testing"
	"time"
)

// TestRNGAccountingPreservesStreams is the bit-compatibility gate for the
// audit plane: an accounted stream must produce exactly the values an
// unaccounted one does, across every draw style rand.Rand offers (Float64
// and Intn exercise the Source64 fast path; a wrapper that dropped the
// interface would shift the stream).
func TestRNGAccountingPreservesStreams(t *testing.T) {
	plain := New(42).RNG("stream")
	counted := New(42)
	counted.EnableRNGAccounting()
	rng := counted.RNG("stream")
	for i := 0; i < 1000; i++ {
		switch i % 4 {
		case 0:
			if a, b := plain.Float64(), rng.Float64(); a != b {
				t.Fatalf("draw %d: Float64 %v != %v", i, a, b)
			}
		case 1:
			if a, b := plain.Intn(97), rng.Intn(97); a != b {
				t.Fatalf("draw %d: Intn %v != %v", i, a, b)
			}
		case 2:
			if a, b := plain.NormFloat64(), rng.NormFloat64(); a != b {
				t.Fatalf("draw %d: NormFloat64 %v != %v", i, a, b)
			}
		case 3:
			if a, b := plain.Uint64(), rng.Uint64(); a != b {
				t.Fatalf("draw %d: Uint64 %v != %v", i, a, b)
			}
		}
	}
	cursors := counted.RNGCursors()
	if cursors["stream"] == 0 {
		t.Fatal("accounted stream recorded no draws")
	}
}

func TestRNGCursorsPerStream(t *testing.T) {
	e := New(7)
	e.EnableRNGAccounting()
	a := e.RNG("a")
	b := e.RNG("b")
	a.Float64()
	a.Float64()
	b.Float64()
	c := e.RNGCursors()
	if c["a"] == 0 || c["b"] == 0 || c["a"] == c["b"] {
		t.Fatalf("cursors do not separate streams: %v", c)
	}
	if len(e.RNGCursors()) != 2 {
		t.Fatalf("want 2 streams, got %v", e.RNGCursors())
	}
}

func TestRNGCursorsEmptyWithoutAccounting(t *testing.T) {
	e := New(7)
	e.RNG("a").Float64()
	if len(e.RNGCursors()) != 0 {
		t.Fatal("cursors present without accounting enabled")
	}
}

type recordObserver struct {
	events []Tag
}

func (r *recordObserver) OnEvent(_ time.Duration, tag Tag, _ int32) {
	r.events = append(r.events, tag)
}

func TestTeeObservers(t *testing.T) {
	if TeeObservers() != nil {
		t.Fatal("empty tee must be nil")
	}
	a := &recordObserver{}
	if TeeObservers(nil, a, nil) != Observer(a) {
		t.Fatal("single-survivor tee must unwrap")
	}
	b := &recordObserver{}
	tee := TeeObservers(a, b)
	e := New(1)
	e.SetObserver(tee)
	e.ScheduleTagged(0, TagMAC, 3, func() {})
	e.Run()
	if len(a.events) != 1 || len(b.events) != 1 || a.events[0] != TagMAC || b.events[0] != TagMAC {
		t.Fatalf("tee did not fan out: a=%v b=%v", a.events, b.events)
	}
}
