package locx

import (
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
)

// testStation wires a MAC whose OnControl feeds the locx node.
type testStation struct {
	m    *mac.MAC
	node *Node
}

func buildExchange(t *testing.T) (*sim.Engine, map[frame.NodeID]*testStation) {
	t.Helper()
	eng := sim.New(1)
	medium := channel.NewMedium(eng, radio.NewLogNormal2400(2.9, 0), -95)
	cfg := mac.Config{PHY: phy.DSSS(), CCAThresholdDBm: -81, FixedCW: 8}

	stations := make(map[frame.NodeID]*testStation)
	mk := func(id frame.NodeID, pos geom.Point) *testStation {
		tr := medium.AddNode(id, pos, 0, nil)
		m := mac.New(eng, tr, cfg)
		tr.SetListener(m)
		st := &testStation{m: m}
		stations[id] = st
		return st
	}
	positions := map[frame.NodeID]geom.Point{
		100: geom.Pt(0, 0),  // AP
		1:   geom.Pt(10, 0), // client
		2:   geom.Pt(0, 12), // client
	}
	measure := func(id frame.NodeID) func() (geom.Point, bool) {
		return func() (geom.Point, bool) { return positions[id], true }
	}
	ap := mk(100, positions[100])
	ap.node = NewAP(eng, ap.m, measure(100), 0)
	for _, id := range []frame.NodeID{1, 2} {
		st := mk(id, positions[id])
		st.node = NewClient(eng, st.m, 100, measure(id), 0)
	}
	for _, st := range stations {
		st := st
		st.m.SetHooks(mac.Hooks{OnControl: func(f frame.Frame, _ float64) {
			st.node.OnBeacon(f)
		}})
	}
	return eng, stations
}

func TestExchangePopulatesTables(t *testing.T) {
	eng, stations := buildExchange(t)
	for _, st := range stations {
		st.node.Start()
	}
	eng.RunUntil(2 * time.Second)

	// The AP must know every client, and every client must learn the other
	// client's position through the AP's re-broadcasts.
	ap := stations[100].node
	for _, id := range []frame.NodeID{1, 2} {
		if _, ok := ap.Position(id); !ok {
			t.Errorf("AP missing client %d", id)
		}
	}
	c1 := stations[1].node
	if p, ok := c1.Position(2); !ok || p != geom.Pt(0, 12) {
		t.Errorf("client 1 learned client 2 at %v ok=%v", p, ok)
	}
	c2 := stations[2].node
	if p, ok := c2.Position(1); !ok || p != geom.Pt(10, 0) {
		t.Errorf("client 2 learned client 1 at %v ok=%v", p, ok)
	}
	if len(c1.table) < 3 {
		t.Errorf("client 1 table size = %d", len(c1.table))
	}
}

func TestExchangeOverheadBounded(t *testing.T) {
	eng, stations := buildExchange(t)
	for _, st := range stations {
		st.node.Start()
	}
	eng.RunUntil(5 * time.Second)

	// Static nodes: clients only report on the slow refresh cadence (the
	// movement threshold suppresses everything else) — one per
	// refreshInterval over the 5 s run.
	for _, id := range []frame.NodeID{1, 2} {
		got := stations[id].node.BeaconsSent()
		if got < 1 || got > 6 {
			t.Errorf("client %d sent %d beacons, want 1..6 (refresh only)", id, got)
		}
	}
	ap := stations[100].node
	if ap.BeaconsSent() == 0 {
		t.Error("AP never re-broadcast")
	}
	// Overhead in bytes: well under 1% of a 6 Mbps channel over 5 s.
	total := ap.BytesSent()
	for _, id := range []frame.NodeID{1, 2} {
		total += stations[id].node.BytesSent()
	}
	budget := int64(6e6 / 8 * 5 / 100)
	if total > budget {
		t.Errorf("location overhead %d bytes exceeds 1%% budget %d", total, budget)
	}
}

func TestOnBeaconChangeDetection(t *testing.T) {
	eng := sim.New(1)
	medium := channel.NewMedium(eng, radio.NewLogNormal2400(2.9, 0), -95)
	tr := medium.AddNode(1, geom.Pt(0, 0), 0, nil)
	m := mac.New(eng, tr, mac.Config{PHY: phy.DSSS(), CCAThresholdDBm: -81})
	n := NewClient(eng, m, 100, func() (geom.Point, bool) { return geom.Pt(0, 0), true }, 0)

	beacon := frame.Frame{Kind: frame.LocationBeacon, Seq: 7, X: 5, Y: 5}
	if !n.OnBeacon(beacon) {
		t.Error("first beacon should report change")
	}
	if n.OnBeacon(beacon) {
		t.Error("repeat beacon should not report change")
	}
	beacon.X = 5.5 // below the 1 m epsilon
	if n.OnBeacon(beacon) {
		t.Error("sub-epsilon move should not report change")
	}
	beacon.X = 10
	if !n.OnBeacon(beacon) {
		t.Error("move beyond epsilon should report change")
	}
	// Non-beacon frames are ignored.
	if n.OnBeacon(frame.Frame{Kind: frame.Data, Seq: 9}) {
		t.Error("data frame treated as beacon")
	}
	if _, ok := n.Position(9); ok {
		t.Error("data frame populated the table")
	}
}

func TestStopHaltsBeacons(t *testing.T) {
	eng, stations := buildExchange(t)
	for _, st := range stations {
		st.node.Start()
	}
	eng.RunUntil(500 * time.Millisecond)
	ap := stations[100].node
	sent := ap.BeaconsSent()
	ap.Stop()
	eng.RunUntil(3 * time.Second)
	if got := ap.BeaconsSent(); got != sent {
		t.Errorf("AP kept beaconing after Stop: %d -> %d", sent, got)
	}
}

func TestMeasureFailureTolerated(t *testing.T) {
	eng := sim.New(1)
	medium := channel.NewMedium(eng, radio.NewLogNormal2400(2.9, 0), -95)
	tr := medium.AddNode(1, geom.Pt(0, 0), 0, nil)
	m := mac.New(eng, tr, mac.Config{PHY: phy.DSSS(), CCAThresholdDBm: -81})
	tr.SetListener(m)
	n := NewClient(eng, m, 100, func() (geom.Point, bool) { return geom.Point{}, false }, 0)
	n.Start()
	eng.RunUntil(time.Second)
	if n.BeaconsSent() != 0 {
		t.Error("client without a position fix must not beacon")
	}
}

// TestClientsBridgeCells places two cells in a row, AP1 C1 C2 AP2 at 25 m
// spacing: the APs are too far apart to decode each other, so each learns
// the other only through the clients' forwards. Once both sides of every
// bridge have carried every position, the clients fall back to their
// refresh reports.
func TestClientsBridgeCells(t *testing.T) {
	eng := sim.New(1)
	medium := channel.NewMedium(eng, radio.NewLogNormal2400(2.9, 0), -95)
	cfg := mac.Config{PHY: phy.DSSS(), CCAThresholdDBm: -81, FixedCW: 8}
	positions := map[frame.NodeID]geom.Point{
		101: geom.Pt(0, 0),
		1:   geom.Pt(25, 0),
		2:   geom.Pt(50, 0),
		102: geom.Pt(75, 0),
	}
	apOf := map[frame.NodeID]frame.NodeID{1: 101, 2: 102}
	nodes := make(map[frame.NodeID]*Node)
	for _, id := range []frame.NodeID{1, 2, 101, 102} {
		tr := medium.AddNode(id, positions[id], 0, nil)
		m := mac.New(eng, tr, cfg)
		tr.SetListener(m)
		pos := positions[id]
		measure := func() (geom.Point, bool) { return pos, true }
		if ap, ok := apOf[id]; ok {
			nodes[id] = NewClient(eng, m, ap, measure, 0)
		} else {
			nodes[id] = NewAP(eng, m, measure, 0)
		}
		n := nodes[id]
		m.SetHooks(mac.Hooks{OnControl: func(f frame.Frame, _ float64) { n.OnBeacon(f) }})
	}
	for _, n := range nodes {
		n.Start()
	}
	eng.RunUntil(5 * time.Second)
	for id, n := range nodes {
		for peer, want := range positions {
			if got, ok := n.Position(peer); !ok || got != want {
				t.Errorf("station %d learned %d at %v ok=%v, want %v", id, peer, got, ok, want)
			}
		}
	}
	before := nodes[1].BeaconsSent() + nodes[2].BeaconsSent()
	eng.RunUntil(10 * time.Second)
	// Refresh reports only: one per client per refreshInterval.
	if sent := nodes[1].BeaconsSent() + nodes[2].BeaconsSent() - before; sent > 12 {
		t.Errorf("clients sent %d beacons in the last 5 s, want at most 12", sent)
	}
}
