package faults

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/loc"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
)

// fullGrammar exercises every location and channel fault kind and every
// parameter; it also seeds FuzzParse.
const fullGrammar = "locloss:p=0.3; locdelay:d=200ms,at=1s,dur=2s; outage:node=2,at=1s,dur=2s; bias:at=1s,dur=500ms,m=20; churn:node=3,at=1s,dur=2s,every=4s; fade:at=2s,dur=300ms,db=10; noise:at=2s,dur=300ms,db=-5"

func TestParseFullGrammar(t *testing.T) {
	spec, err := Parse(fullGrammar)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Procs) != 7 {
		t.Fatalf("parsed %d processes", len(spec.Procs))
	}
	p := spec.Procs[0]
	if p.Kind != LocLoss || p.P != 0.3 || p.windowed() {
		t.Errorf("locloss = %+v", p)
	}
	if c := spec.Procs[4]; c.Kind != Churn || !c.HasNode || c.Node != 3 || c.Every != 4*time.Second {
		t.Errorf("churn = %+v", c)
	}
	if n := spec.Procs[6]; n.DB != -5 {
		t.Errorf("noise = %+v", n)
	}
}

func TestParseEmptyIsNil(t *testing.T) {
	spec, err := Parse("  ")
	if err != nil || spec != nil {
		t.Errorf("Parse(blank) = %v, %v", spec, err)
	}
}

func TestParseRejectsMalformedSpecs(t *testing.T) {
	cases := []struct{ spec, wantErr string }{
		{"explode:p=1", "unknown fault kind"},
		{"locloss", "p in (0,1]"},
		{"locloss:p=1.5", "p in (0,1]"},
		{"locloss:p=-0.1", "p in (0,1]"},
		{"locloss:pp=0.5", "unknown parameter"},
		{"locloss:p", "malformed parameter"},
		{"locdelay:d=0s", "d > 0"},
		{"locdelay:d=-5ms", "must not be negative"},
		{"outage:at=1s,dur=1s", "needs node="},
		{"outage:node=1,at=1s", "dur > 0"},
		{"bias:at=1s,dur=1s", "m > 0"},
		{"churn:node=1,dur=1s,every=500ms", "must exceed dur"},
		{"fade:at=1s,dur=1s,db=-3", "db > 0"},
		{"noise:at=1s,dur=1s", "db != 0"},
		{"outage:node=banana,at=1s,dur=1s", "node"},
		{"locloss:p=0.5,at=oops", "at"},
		{";;", "no processes"},
		{"locloss:p=NaN", "p=\"NaN\": must be finite"},
		{"noise:db=NaN,dur=1s", "db=\"NaN\": must be finite"},
		{"bias:m=NaN,dur=1s", "m=\"NaN\": must be finite"},
		{"bias:m=+Inf,dur=1s", "m=\"+Inf\": must be finite"},
		{"fade:db=+Inf,dur=1s", "db=\"+Inf\": must be finite"},
	}
	for _, c := range cases {
		if _, err := Parse(c.spec); err == nil {
			t.Errorf("Parse(%q) accepted", c.spec)
		} else if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("Parse(%q) error = %v, want substring %q", c.spec, err, c.wantErr)
		}
	}
}

// FuzzParse checks that no spec makes Parse panic and that every accepted
// process carries finite P, M and DB.
func FuzzParse(f *testing.F) {
	f.Add(fullGrammar)
	for _, part := range strings.Split(fullGrammar, ";") {
		f.Add(strings.TrimSpace(part))
	}
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := Parse(text)
		if err != nil || spec == nil {
			return
		}
		for _, p := range spec.Procs {
			for _, v := range []float64{p.P, p.M, p.DB} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("Parse(%q) accepted non-finite parameter: %+v", text, p)
				}
			}
		}
	})
}

func newFaultedRegistry(eng *sim.Engine) *loc.Registry {
	r := loc.NewRegistry(eng.RNG("loc"), 0, 1)
	r.SetClock(eng.Now)
	r.SetScheduler(func(d time.Duration, fn func()) { eng.After(d, fn) })
	return r
}

func TestWindowedLossOnlyDropsInsideWindow(t *testing.T) {
	eng := sim.New(7)
	reg := newFaultedRegistry(eng)
	reg.Register(1, geom.Pt(0, 0))
	spec, err := Parse("locloss:p=1,at=1s,dur=1s")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(eng, spec, Targets{Loc: reg})
	in.Start()
	// Reports at 0.5 s (before), 1.5 s (inside), 2.5 s (after).
	for _, at := range []time.Duration{500, 1500, 2500} {
		eng.After(at*time.Millisecond, func() { reg.ForceReport(1) })
	}
	eng.Run()
	if reg.DroppedReports() != 1 {
		t.Errorf("DroppedReports = %d, want exactly the in-window report", reg.DroppedReports())
	}
	if in.Injected() != 1 {
		t.Errorf("Injected = %d", in.Injected())
	}
}

func TestRecurringWindowReopens(t *testing.T) {
	eng := sim.New(7)
	reg := newFaultedRegistry(eng)
	reg.Register(1, geom.Pt(0, 0))
	spec, _ := Parse("locloss:p=1,at=0s,dur=100ms,every=1s")
	in := NewInjector(eng, spec, Targets{Loc: reg})
	in.Start()
	eng.RunUntil(3500 * time.Millisecond)
	if in.Injected() != 4 { // windows at 0, 1, 2, 3 s
		t.Errorf("Injected = %d, want 4 window openings", in.Injected())
	}
}

func TestDelayProcessDelaysCommits(t *testing.T) {
	eng := sim.New(7)
	reg := newFaultedRegistry(eng)
	reg.Register(1, geom.Pt(0, 0))
	spec, _ := Parse("locdelay:d=250ms")
	NewInjector(eng, spec, Targets{Loc: reg}).Start()
	eng.After(time.Second, func() { reg.Move(1, geom.Pt(50, 0)) })
	var before geom.Point
	eng.After(1200*time.Millisecond, func() { before, _ = reg.Position(1) })
	eng.Run()
	if before != geom.Pt(0, 0) {
		t.Errorf("position before the delay elapsed = %v", before)
	}
	if p, _ := reg.Position(1); p != geom.Pt(50, 0) {
		t.Errorf("delayed report never committed")
	}
	if reg.DelayedReports() != 1 {
		t.Errorf("DelayedReports = %d", reg.DelayedReports())
	}
}

func TestOutageFreezesAndRecovers(t *testing.T) {
	eng := sim.New(7)
	reg := newFaultedRegistry(eng)
	reg.Register(2, geom.Pt(0, 0))
	spec, _ := Parse("outage:node=2,at=1s,dur=1s")
	NewInjector(eng, spec, Targets{Loc: reg}).Start()
	eng.After(1500*time.Millisecond, func() { reg.Move(2, geom.Pt(80, 0)) })
	var during geom.Point
	eng.After(1800*time.Millisecond, func() { during, _ = reg.Position(2) })
	eng.Run()
	if during != geom.Pt(0, 0) {
		t.Errorf("fix moved during outage: %v", during)
	}
	// Window close force-reports: the node recovers without further movement.
	if p, _ := reg.Position(2); p != geom.Pt(80, 0) {
		t.Errorf("fix after outage = %v, want recovery", p)
	}
}

func TestBiasBurstAppliesAndClears(t *testing.T) {
	eng := sim.New(7)
	reg := newFaultedRegistry(eng)
	reg.Register(1, geom.Pt(0, 0))
	spec, _ := Parse("bias:node=1,at=1s,dur=1s,m=40")
	NewInjector(eng, spec, Targets{Loc: reg, Nodes: []frame.NodeID{1}}).Start()
	var during geom.Point
	eng.After(1500*time.Millisecond, func() { during, _ = reg.Position(1) })
	eng.Run()
	if d := during.DistanceTo(geom.Pt(0, 0)); d < 39.999 || d > 40.001 {
		t.Errorf("bias magnitude = %v, want 40", d)
	}
	if p, _ := reg.Position(1); p.DistanceTo(geom.Pt(0, 0)) > 0.001 {
		t.Errorf("bias did not clear: %v", p)
	}
}

type churnLog struct {
	events []string
}

func (c *churnLog) StationLeave(id frame.NodeID)  { c.events = append(c.events, "leave") }
func (c *churnLog) StationRejoin(id frame.NodeID) { c.events = append(c.events, "rejoin") }

func TestChurnDrivesController(t *testing.T) {
	eng := sim.New(7)
	spec, _ := Parse("churn:node=3,at=1s,dur=2s")
	cl := &churnLog{}
	NewInjector(eng, spec, Targets{Churn: cl}).Start()
	eng.RunUntil(5 * time.Second)
	if len(cl.events) != 2 || cl.events[0] != "leave" || cl.events[1] != "rejoin" {
		t.Errorf("churn events = %v", cl.events)
	}
}

// energyLog records the received power of every frame a node hears.
type energyLog struct{ dBm []float64 }

func (l *energyLog) EnergyChanged(agg float64) {
	if !math.IsInf(agg, -1) {
		l.dBm = append(l.dBm, agg)
	}
}
func (l *energyLog) FrameReceived(frame.Frame, bool, float64) {}
func (l *energyLog) TransmitDone(frame.Frame)                 {}

func TestFadeAndNoiseWindows(t *testing.T) {
	eng := sim.New(7)
	model := radio.NewLogNormal2400(2.9, 0)
	med := channel.NewMedium(eng, model, -96)
	spec, _ := Parse("fade:at=1s,dur=1s,db=10; noise:at=3s,dur=1s,db=15")
	NewInjector(eng, spec, Targets{Medium: med}).Start()
	// With no shadowing, a link's received power drops by exactly the
	// injected fade.
	a := med.AddNode(1, geom.Pt(0, 0), 0, nil)
	rx := &energyLog{}
	med.AddNode(2, geom.Pt(10, 0), 0, rx)
	clean := model.MeanReceivedDBm(0, 10)
	type sample struct{ fade, noise float64 }
	samples := map[time.Duration]*sample{}
	for _, at := range []time.Duration{500, 1500, 2500, 3500, 4500} {
		at := at * time.Millisecond
		samples[at] = &sample{}
		eng.After(at, func() {
			if err := a.Transmit(frame.Frame{Kind: frame.Data, Src: 1, Dst: 2}, phy.RateDSSS1, time.Microsecond); err != nil {
				t.Fatal(err)
			}
			*samples[at] = sample{math.Round(clean - rx.dBm[len(rx.dBm)-1]), med.NoiseFloorDBm()}
		})
	}
	eng.Run()
	for at, want := range map[time.Duration]sample{
		500 * time.Millisecond:  {0, -96},
		1500 * time.Millisecond: {10, -96},
		2500 * time.Millisecond: {0, -96},
		3500 * time.Millisecond: {0, -81},
		4500 * time.Millisecond: {0, -96},
	} {
		if got := *samples[at]; got != want {
			t.Errorf("at %v: (fade, noise) = %v, want %v", at, got, want)
		}
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	in := NewInjector(sim.New(1), nil, Targets{})
	if in != nil {
		t.Fatal("nil spec should yield a nil injector")
	}
	in.Start() // must not panic
	in.SetTrace(nil)
	in.SetMetrics(nil)
	if in.Injected() != 0 {
		t.Error("nil injector injected something")
	}
}

func TestInjectionIsDeterministicPerSeed(t *testing.T) {
	run := func() (dropped int, pos geom.Point) {
		eng := sim.New(42)
		reg := newFaultedRegistry(eng)
		reg.Register(1, geom.Pt(0, 0))
		spec, _ := Parse("locloss:p=0.5; bias:node=1,at=1s,dur=1s,m=10")
		NewInjector(eng, spec, Targets{Loc: reg, Nodes: []frame.NodeID{1}}).Start()
		for i := 1; i <= 20; i++ {
			eng.After(time.Duration(i)*100*time.Millisecond, func() { reg.ForceReport(1) })
		}
		eng.Run()
		p, _ := reg.Position(1)
		return reg.DroppedReports(), p
	}
	d1, p1 := run()
	d2, p2 := run()
	if d1 != d2 || p1 != p2 {
		t.Errorf("runs diverged: (%d, %v) vs (%d, %v)", d1, p1, d2, p2)
	}
	if d1 == 0 || d1 == 21 {
		t.Errorf("p=0.5 loss dropped %d of 21 reports — fault likely inert", d1)
	}
}
