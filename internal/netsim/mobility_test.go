package netsim

import (
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/topology"
)

func TestScheduleWalkValidation(t *testing.T) {
	top := topology.ETSweep(20)
	opts := TestbedOptions()
	opts.Seed = 1
	opts.Duration = time.Second
	n, err := Build(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.ScheduleWalk(99, geom.Pt(0, 0), 1, 0); err == nil {
		t.Error("unknown node accepted")
	}
	if err := n.ScheduleWalk(topology.C2, geom.Pt(0, 0), 0, 0); err == nil {
		t.Error("zero speed accepted")
	}
	// Zero-length walk is a no-op.
	if err := n.ScheduleWalk(topology.C2, geom.Pt(20, 0), 1, 0); err != nil {
		t.Errorf("no-op walk: %v", err)
	}
}

func TestWalkMovesNodeAndReports(t *testing.T) {
	top := topology.ETSweep(12)
	opts := TestbedOptions()
	opts.Seed = 2
	opts.Duration = 10 * time.Second
	n, err := Build(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	reportsBefore := n.Locs.Updates()
	// Walk C2 from (12,0) to (32,0) at 4 m/s: 5 seconds.
	if err := n.ScheduleWalk(topology.C2, geom.Pt(32, 0), 4, 0); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if got := n.Medium.Node(topology.C2).Position(); got.DistanceTo(geom.Pt(32, 0)) > 0.01 {
		t.Errorf("final position = %v", got)
	}
	// 20 m of walking at a 1 m report threshold: many reports, but far fewer
	// than the 100 ms ticks (the threshold coalesces).
	reports := n.Locs.Updates() - reportsBefore
	if reports < 10 || reports > 25 {
		t.Errorf("position reports during walk = %d, want ~20", reports)
	}
}

// TestMobileExposedTerminal walks C2 out of the unsafe zone into the
// exposed-terminal region: CO-MAP must start exploiting concurrency as the
// reported positions change.
func TestMobileExposedTerminal(t *testing.T) {
	top := topology.ETSweep(16) // starts too close for concurrency
	opts := TestbedOptions()
	opts.Protocol = ProtocolComap
	opts.Seed = 3
	opts.Duration = 12 * time.Second
	n, err := Build(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Stroll to x=32 at ~1.5 m/s (~10.7 s): the second half of the run sits
	// firmly in the ET region.
	if err := n.ScheduleWalk(topology.C2, geom.Pt(32, 0), 1.5, 0); err != nil {
		t.Fatal(err)
	}

	concAt := map[string]int64{}
	n.Eng.Schedule(4*time.Second, func() {
		concAt["early"] = n.Stations[topology.C1].MAC.Stats().Get("et.concurrent_tx") +
			n.Stations[topology.C2].MAC.Stats().Get("et.concurrent_tx")
	})
	n.Run()
	final := n.Stations[topology.C1].MAC.Stats().Get("et.concurrent_tx") +
		n.Stations[topology.C2].MAC.Stats().Get("et.concurrent_tx")

	if final == 0 {
		t.Fatal("concurrency never engaged along the walk")
	}
	// Most concurrency should come after the walk enters the ET region.
	if final-concAt["early"] < concAt["early"] {
		t.Errorf("concurrency did not grow late in the walk: early=%d final=%d",
			concAt["early"], final)
	}
}
