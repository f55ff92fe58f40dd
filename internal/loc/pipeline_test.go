package loc

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/sim"
)

// newClockedRegistry wires a registry to a simulation engine's clock and
// scheduler, as netsim.Build does.
func newClockedRegistry(eng *sim.Engine, errRange, threshold float64) *Registry {
	r := NewRegistry(rand.New(rand.NewSource(1)), errRange, threshold)
	r.SetClock(eng.Now)
	r.SetScheduler(func(d time.Duration, fn func()) { eng.After(d, fn) })
	return r
}

func TestFixCarriesReportTimeAndErrorRadius(t *testing.T) {
	eng := sim.New(1)
	r := newClockedRegistry(eng, 7, 1)
	r.Register(1, geom.Pt(0, 0))
	fix, ok := r.Fix(1)
	if !ok {
		t.Fatal("no fix after Register")
	}
	if fix.ReportedAt != 0 || fix.ErrorRadiusMeters != 7 {
		t.Errorf("fix = %+v", fix)
	}
	eng.After(time.Second, func() { r.Move(1, geom.Pt(10, 0)) })
	eng.Run()
	fix, _ = r.Fix(1)
	if fix.ReportedAt != time.Second {
		t.Errorf("ReportedAt = %v, want 1s", fix.ReportedAt)
	}
}

func TestDelayedReportCommitsLater(t *testing.T) {
	eng := sim.New(1)
	r := newClockedRegistry(eng, 0, 1)
	r.Register(1, geom.Pt(0, 0))

	r.SetPipelineFault(func(id frame.NodeID) (time.Duration, bool) { return 200 * time.Millisecond, false })
	eng.After(time.Second, func() { r.Move(1, geom.Pt(50, 0)) })
	var posAtCommitMinus, posAtCommitPlus geom.Point
	eng.After(time.Second+199*time.Millisecond, func() { posAtCommitMinus, _ = r.Position(1) })
	eng.After(time.Second+201*time.Millisecond, func() { posAtCommitPlus, _ = r.Position(1) })
	eng.Run()

	if posAtCommitMinus != geom.Pt(0, 0) {
		t.Errorf("report visible before its latency elapsed: %v", posAtCommitMinus)
	}
	if posAtCommitPlus != geom.Pt(50, 0) {
		t.Errorf("delayed report did not commit: %v", posAtCommitPlus)
	}
	if r.DelayedReports() != 1 {
		t.Errorf("DelayedReports = %d", r.DelayedReports())
	}
	// The fix's ReportedAt is the measurement time, not the commit time.
	fix, _ := r.Fix(1)
	if fix.ReportedAt != time.Second {
		t.Errorf("ReportedAt = %v, want 1s (measurement time)", fix.ReportedAt)
	}
}

func TestDroppedReportLeavesStaleFix(t *testing.T) {
	eng := sim.New(1)
	r := newClockedRegistry(eng, 0, 1)
	r.Register(1, geom.Pt(0, 0))
	r.SetPipelineFault(func(id frame.NodeID) (time.Duration, bool) { return 0, true })
	r.Move(1, geom.Pt(50, 0))
	if p, _ := r.Position(1); p != geom.Pt(0, 0) {
		t.Errorf("dropped report still committed: %v", p)
	}
	if r.DroppedReports() != 1 {
		t.Errorf("DroppedReports = %d", r.DroppedReports())
	}
	if r.Updates() != 2 {
		t.Errorf("Updates = %d (dropped reports still cost signalling)", r.Updates())
	}
}

func TestOutageFreezesFix(t *testing.T) {
	eng := sim.New(1)
	r := newClockedRegistry(eng, 0, 1)
	r.Register(1, geom.Pt(0, 0))
	r.SetFrozen(1, true)
	if !r.frozen[1] {
		t.Fatal("Frozen not set")
	}
	eng.After(time.Second, func() { r.Move(1, geom.Pt(50, 0)) })
	eng.Run()
	fix, _ := r.Fix(1)
	if fix.Pos != geom.Pt(0, 0) || fix.ReportedAt != 0 {
		t.Errorf("outage did not freeze the fix: %+v", fix)
	}
	// Recovery: the next report lands again.
	r.SetFrozen(1, false)
	if !r.ForceReport(1) {
		t.Fatal("ForceReport !ok")
	}
	fix, _ = r.Fix(1)
	if fix.Pos != geom.Pt(50, 0) {
		t.Errorf("post-outage fix = %+v", fix)
	}
}

func TestBiasBurstShiftsReports(t *testing.T) {
	r := NewRegistry(rand.New(rand.NewSource(1)), 0, 1)
	r.Register(1, geom.Pt(10, 10))
	r.SetBias(1, geom.Vec(20, 0))
	r.ForceReport(1)
	if p, _ := r.Position(1); p != geom.Pt(30, 10) {
		t.Errorf("biased report = %v", p)
	}
	r.SetBias(1, geom.Vec(0, 0)) // clears
	r.ForceReport(1)
	if p, _ := r.Position(1); p != geom.Pt(10, 10) {
		t.Errorf("bias did not clear: %v", p)
	}
}

func TestDeregisterRemovesNode(t *testing.T) {
	eng := sim.New(1)
	r := newClockedRegistry(eng, 0, 1)
	r.Register(1, geom.Pt(0, 0))
	if !r.Deregister(1) {
		t.Fatal("Deregister !ok on a registered node")
	}
	if _, ok := r.Position(1); ok {
		t.Error("deregistered node still has a fix")
	}
	if _, ok := r.truth[1]; ok {
		t.Error("deregistered node still has truth")
	}
	if r.Deregister(1) {
		t.Error("double Deregister should be !ok")
	}
	if r.ForceReport(1) {
		t.Error("ForceReport after Deregister should be !ok")
	}
}

func TestDelayedReportDoesNotOvertakeNewerFix(t *testing.T) {
	eng := sim.New(1)
	r := newClockedRegistry(eng, 0, 1)
	r.Register(1, geom.Pt(0, 0))
	// First report is slow, second is instant: the slow one lands after the
	// fresh one and must not roll the table back.
	slow := true
	r.SetPipelineFault(func(id frame.NodeID) (time.Duration, bool) {
		if slow {
			slow = false
			return 500 * time.Millisecond, false
		}
		return 0, false
	})
	eng.After(100*time.Millisecond, func() { r.Move(1, geom.Pt(10, 0)) }) // commits at 600ms
	eng.After(200*time.Millisecond, func() { r.Move(1, geom.Pt(20, 0)) }) // commits at 200ms
	eng.Run()
	if p, _ := r.Position(1); p != geom.Pt(20, 0) {
		t.Errorf("stale delayed report overwrote a newer fix: %v", p)
	}
}

func TestDelayedReportAfterDeregisterDoesNotResurrect(t *testing.T) {
	eng := sim.New(1)
	r := newClockedRegistry(eng, 0, 1)
	r.Register(1, geom.Pt(0, 0))
	r.SetPipelineFault(func(id frame.NodeID) (time.Duration, bool) { return 300 * time.Millisecond, false })
	eng.After(100*time.Millisecond, func() { r.Move(1, geom.Pt(10, 0)) })
	eng.After(200*time.Millisecond, func() { r.Deregister(1) })
	eng.Run()
	if _, ok := r.Position(1); ok {
		t.Error("in-flight report resurrected a deregistered node")
	}
}
