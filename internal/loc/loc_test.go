package loc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestPerfectRegistry(t *testing.T) {
	r := NewRegistry(rand.New(rand.NewSource(1)), 0, 5)
	r.Register(1, geom.Pt(10, 20))
	p, ok := r.Position(1)
	if !ok || p != geom.Pt(10, 20) {
		t.Errorf("Position = %v ok=%v", p, ok)
	}
	tp, ok := r.truth[1]
	if !ok || tp != geom.Pt(10, 20) {
		t.Errorf("TruePosition = %v", tp)
	}
	if _, ok := r.Position(99); ok {
		t.Error("unknown node should not report")
	}
	if r.Updates() != 1 {
		t.Errorf("Updates = %d", r.Updates())
	}
}

func TestErrorWithinRange(t *testing.T) {
	const errRange = 10.0
	r := NewRegistry(rand.New(rand.NewSource(2)), errRange, 5)
	maxErr := 0.0
	var sumErr float64
	const n = 2000
	for i := 0; i < n; i++ {
		r.Register(1, geom.Pt(0, 0))
		p, _ := r.Position(1)
		e := p.DistanceTo(geom.Pt(0, 0))
		if e > errRange {
			t.Fatalf("error %v exceeds range %v", e, errRange)
		}
		if e > maxErr {
			maxErr = e
		}
		sumErr += e
	}
	// Uniform disc: mean distance = 2R/3, and the max should get close to R.
	if mean := sumErr / n; math.Abs(mean-2*errRange/3) > 0.5 {
		t.Errorf("mean error = %v, want ~%v", mean, 2*errRange/3)
	}
	if maxErr < 0.9*errRange {
		t.Errorf("max error %v suspiciously small for range %v", maxErr, errRange)
	}
}

func TestMovementThreshold(t *testing.T) {
	r := NewRegistry(rand.New(rand.NewSource(3)), 0, 5)
	r.Register(1, geom.Pt(0, 0))
	if r.Updates() != 1 {
		t.Fatalf("Updates = %d", r.Updates())
	}
	// Small move: no new report; the reported position stays stale.
	r.Move(1, geom.Pt(3, 0))
	if r.Updates() != 1 {
		t.Errorf("small move triggered report")
	}
	p, _ := r.Position(1)
	if p != geom.Pt(0, 0) {
		t.Errorf("reported position should be stale, got %v", p)
	}
	if tp := r.truth[1]; tp != geom.Pt(3, 0) {
		t.Errorf("true position should track moves, got %v", tp)
	}
	// Cumulative move beyond the threshold from the LAST REPORT: reports.
	r.Move(1, geom.Pt(6, 0))
	if r.Updates() != 2 {
		t.Errorf("move beyond threshold did not report (updates=%d)", r.Updates())
	}
	p, _ = r.Position(1)
	if p != geom.Pt(6, 0) {
		t.Errorf("reported position = %v", p)
	}
}

func TestMoveOnUnregisteredNodeRegisters(t *testing.T) {
	r := NewRegistry(rand.New(rand.NewSource(4)), 0, 5)
	r.Move(7, geom.Pt(1, 1))
	if p, ok := r.Position(7); !ok || p != geom.Pt(1, 1) {
		t.Errorf("Position = %v ok=%v", p, ok)
	}
}

func TestForceReport(t *testing.T) {
	r := NewRegistry(rand.New(rand.NewSource(5)), 0, 100)
	r.Register(1, geom.Pt(0, 0))
	r.Move(1, geom.Pt(10, 0)) // below threshold, stale report
	if !r.ForceReport(1) {
		t.Error("ForceReport on a registered node should report ok")
	}
	if p, _ := r.Position(1); p != geom.Pt(10, 0) {
		t.Errorf("forced report = %v", p)
	}
	if r.ForceReport(99) { // unknown: no panic, no update, not ok
		t.Error("ForceReport on an unregistered node must return !ok")
	}
	if r.Updates() != 2 {
		t.Errorf("Updates = %d", r.Updates())
	}
}

func TestMovementExactlyAtThresholdDoesNotReport(t *testing.T) {
	// The paper's rule is strictly "more than" the threshold: a move of
	// exactly the threshold distance must NOT re-report.
	r := NewRegistry(rand.New(rand.NewSource(8)), 0, 5)
	r.Register(1, geom.Pt(0, 0))
	r.Move(1, geom.Pt(5, 0)) // exactly at threshold
	if r.Updates() != 1 {
		t.Errorf("move of exactly the threshold re-reported (updates=%d)", r.Updates())
	}
	if p, _ := r.Position(1); p != geom.Pt(0, 0) {
		t.Errorf("reported position should be stale, got %v", p)
	}
	// The tiniest excess past the threshold reports.
	r.Move(1, geom.Pt(5.000001, 0))
	if r.Updates() != 2 {
		t.Errorf("move past the threshold did not report (updates=%d)", r.Updates())
	}
}

func TestIDs(t *testing.T) {
	r := NewRegistry(rand.New(rand.NewSource(6)), 0, 5)
	r.Register(3, geom.Pt(0, 0))
	r.Register(1, geom.Pt(1, 0))
	ids := r.IDs()
	if len(ids) != 2 {
		t.Errorf("IDs = %v", ids)
	}
}

func TestStaticProvider(t *testing.T) {
	s := Static{5: geom.Pt(2, 3)}
	if p, ok := s.Position(5); !ok || p != geom.Pt(2, 3) {
		t.Errorf("Position = %v ok=%v", p, ok)
	}
	if _, ok := s.Position(6); ok {
		t.Error("missing id should be !ok")
	}
}

func TestErrorRangeAccessor(t *testing.T) {
	r := NewRegistry(rand.New(rand.NewSource(7)), 12.5, 5)
	if r.errorRange != 12.5 {
		t.Errorf("ErrorRange = %v", r.errorRange)
	}
}

func TestErrorBoundProperty(t *testing.T) {
	f := func(seed int64, rRaw uint8, xRaw, yRaw int16) bool {
		errRange := 1 + float64(rRaw%30)
		r := NewRegistry(rand.New(rand.NewSource(seed)), errRange, 1)
		truth := geom.Pt(float64(xRaw), float64(yRaw))
		r.Register(5, truth)
		got, ok := r.Position(5)
		return ok && got.DistanceTo(truth) <= errRange+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
