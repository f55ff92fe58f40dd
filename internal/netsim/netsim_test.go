package netsim

import (
	"testing"
	"time"

	"repro/internal/bianchi"
	"repro/internal/phy"
	"repro/internal/topology"
)

func TestProtocolString(t *testing.T) {
	if ProtocolDCF.String() != "DCF" || ProtocolComap.String() != "CO-MAP" {
		t.Error("protocol strings")
	}
	if Protocol(9).String() == "" {
		t.Error("unknown protocol should stringify")
	}
}

func TestBuildValidation(t *testing.T) {
	top := topology.ETSweep(28)
	opts := TestbedOptions()

	bad := opts
	bad.Protocol = 0
	if _, err := Build(top, bad); err == nil {
		t.Error("invalid protocol accepted")
	}
	bad = opts
	bad.Duration = 0
	if _, err := Build(top, bad); err == nil {
		t.Error("zero duration accepted")
	}
	broken := topology.Topology{Name: "broken", Flows: []topology.Flow{{Src: 1, Dst: 2}}}
	if _, err := Build(broken, opts); err == nil {
		t.Error("invalid topology accepted")
	}
}

func TestSingleLinkDCF(t *testing.T) {
	top := topology.Topology{
		Name: "single",
		Nodes: []topology.Node{
			{ID: topology.AP1, Pos: pt(0, 0), IsAP: true},
			{ID: topology.C1, Pos: pt(8, 0)},
		},
		Flows: []topology.Flow{{Src: topology.C1, Dst: topology.AP1}},
	}
	opts := TestbedOptions()
	opts.Seed = 1
	opts.Duration = 2 * time.Second
	res, err := RunScenario(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	g := res.Goodput(top.Flows[0])
	// An isolated 8 m link with Minstrel over the 802.11b rates should
	// comfortably exceed 3.5 Mbps goodput.
	if g < 3.5e6 {
		t.Errorf("single-link goodput = %.2f Mbps, want > 3.5", g/1e6)
	}
	if res.Total() != g || res.MeanPerFlow() != g {
		t.Error("aggregate accessors inconsistent for single flow")
	}
}

func TestDeterministicReplay(t *testing.T) {
	top := topology.ETSweep(26)
	opts := TestbedOptions()
	opts.Seed = 42
	opts.Duration = time.Second

	run := func() []float64 {
		res, err := RunScenario(top, opts)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(res.Flows))
		for i, f := range res.Flows {
			out[i] = f.GoodputBps
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at flow %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestComapBeatsDCFInExposedTerminalScenario(t *testing.T) {
	top := topology.ETSweep(30)
	var dcfTotal, cmTotal float64
	const seeds = 4
	for s := int64(0); s < seeds; s++ {
		base := TestbedOptions()
		base.Seed = 100 + s
		base.Duration = 2 * time.Second

		dcf := base
		dcf.Protocol = ProtocolDCF
		dcfRes, err := RunScenario(top, dcf)
		if err != nil {
			t.Fatal(err)
		}
		dcfTotal += dcfRes.Total()

		cm := base
		cm.Protocol = ProtocolComap
		cmRes, err := RunScenario(top, cm)
		if err != nil {
			t.Fatal(err)
		}
		cmTotal += cmRes.Total()
	}

	if cmTotal <= dcfTotal {
		t.Errorf("CO-MAP total %.2f Mbps <= DCF %.2f Mbps",
			cmTotal/1e6/seeds, dcfTotal/1e6/seeds)
	}
	// Shape-level check: meaningful mean gain in the heart of the ET region.
	if gain := cmTotal/dcfTotal - 1; gain < 0.15 {
		t.Errorf("ET gain = %.1f%%, want >= 15%%", gain*100)
	}
}

func TestComapConcurrencyHappens(t *testing.T) {
	top := topology.ETSweep(28)
	opts := TestbedOptions()
	opts.Seed = 3
	opts.Protocol = ProtocolComap
	opts.Duration = 2 * time.Second
	n, err := Build(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	conc := n.Stations[topology.C1].MAC.Stats().Get("et.concurrent_tx") +
		n.Stations[topology.C2].MAC.Stats().Get("et.concurrent_tx")
	if conc == 0 {
		t.Error("no concurrent transmissions in the ET region")
	}
}

func TestComapDeniesConcurrencyOutsideETRegion(t *testing.T) {
	// C2 at 16 m from AP1: too close for safe concurrency; the co-occurrence
	// map must deny it.
	top := topology.ETSweep(16)
	opts := TestbedOptions()
	opts.Seed = 5
	opts.Protocol = ProtocolComap
	opts.Duration = 2 * time.Second
	n, err := Build(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	conc := n.Stations[topology.C1].MAC.Stats().Get("et.concurrent_tx") +
		n.Stations[topology.C2].MAC.Stats().Get("et.concurrent_tx")
	if conc != 0 {
		t.Errorf("%d concurrent transmissions despite unsafe geometry", conc)
	}
}

func TestHiddenTerminalAdaptationShrinksPayload(t *testing.T) {
	opts := NS2Options()
	opts.Seed = 11
	opts.Protocol = ProtocolComap
	opts.Duration = time.Second
	opts.PayloadBytes = 1500
	base := bianchi.FromPHY(opts.PHY, phy.RateOFDM6)
	opts.AdaptTable = bianchi.NewAdaptationTable(base, 5, 8, nil, nil)

	top := topology.HTRoles([]topology.Role{
		topology.RoleHidden, topology.RoleHidden, topology.RoleHidden,
	})
	n, err := Build(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The measured station should see 3 hidden terminals and adapt.
	c1 := n.Stations[topology.C1]
	h, _ := c1.Agent.CountEnvironment(topology.AP1, []frameID{2, 3, 4})
	if h != 3 {
		t.Fatalf("agent sees %d hidden terminals, want 3", h)
	}
	setting := opts.AdaptTable.Lookup(c1.Agent.CountEnvironment(topology.AP1, []frameID{2, 3, 4}))
	noHT := opts.AdaptTable.Lookup(0, 0)
	if setting.PayloadBytes >= noHT.PayloadBytes {
		t.Errorf("payload with 3 HTs (%d) should be below no-HT payload (%d)",
			setting.PayloadBytes, noHT.PayloadBytes)
	}
	n.Run()
}

func TestCBRLimitsGoodput(t *testing.T) {
	top := topology.Topology{
		Name: "single-cbr",
		Nodes: []topology.Node{
			{ID: topology.AP1, Pos: pt(0, 0), IsAP: true},
			{ID: topology.C1, Pos: pt(10, 0)},
		},
		Flows: []topology.Flow{{Src: topology.C1, Dst: topology.AP1}},
	}
	opts := NS2Options()
	opts.Seed = 2
	opts.Duration = 2 * time.Second
	opts.CBRBitsPerSec = 500_000
	res, err := RunScenario(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	g := res.Goodput(top.Flows[0])
	if g > 1.1*opts.CBRBitsPerSec {
		t.Errorf("goodput %.0f exceeds offered CBR %.0f", g, opts.CBRBitsPerSec)
	}
	if g < 0.6*opts.CBRBitsPerSec {
		t.Errorf("goodput %.0f far below offered CBR on a clean link", g)
	}
}

func TestLargeScaleRunsBothProtocols(t *testing.T) {
	rng := newRand(9)
	top := topology.LargeScale(rng)
	opts := NS2Options()
	opts.Seed = 9
	opts.Duration = time.Second
	opts.CBRBitsPerSec = 3e6

	for _, proto := range []Protocol{ProtocolDCF, ProtocolComap} {
		opts.Protocol = proto
		res, err := RunScenario(top, opts)
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if len(res.Flows) != 18 {
			t.Fatalf("%v: %d flows", proto, len(res.Flows))
		}
		if res.Total() == 0 {
			t.Errorf("%v: zero aggregate goodput", proto)
		}
	}
}

func TestPositionErrorStillRuns(t *testing.T) {
	top := topology.ETSweep(28)
	opts := TestbedOptions()
	opts.Seed = 4
	opts.Protocol = ProtocolComap
	opts.PositionErrorMeters = 10
	opts.Duration = time.Second
	res, err := RunScenario(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total() == 0 {
		t.Error("zero goodput with position error")
	}
}

// TestComapMapHitAllocatesNothing pins the co-occurrence-map hit path at
// zero allocations, both in-process and through the zero-fault control
// plane: the hit is the per-frame case of Agent.Allowed.
func TestComapMapHitAllocatesNothing(t *testing.T) {
	for _, remote := range []bool{false, true} {
		opts := TestbedOptions()
		opts.Seed = 3
		opts.Protocol = ProtocolComap
		opts.ComapRemote = remote
		opts.Duration = 200 * time.Millisecond
		n, err := Build(topology.ETSweep(30), opts)
		if err != nil {
			t.Fatal(err)
		}
		n.Run()
		if remote != (n.MapClient != nil) {
			t.Fatalf("remote=%v but control-plane client attached=%v", remote, n.MapClient != nil)
		}
		a := n.Stations[topology.C2].Agent
		a.Allowed(topology.C1, topology.AP1, topology.AP2) // make sure the verdict is in the map
		hits := a.Map().Hits()
		allocs := testing.AllocsPerRun(100, func() {
			a.Allowed(topology.C1, topology.AP1, topology.AP2)
		})
		if got := a.Map().Hits() - hits; got != 101 {
			t.Fatalf("remote=%v: %d map hits over 101 calls, want every call a hit", remote, got)
		}
		if allocs != 0 {
			t.Errorf("remote=%v: map hit allocates %v times per call, want 0", remote, allocs)
		}
	}
}
