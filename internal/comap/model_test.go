package comap

import (
	"errors"
	"math"
	"testing"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/loc"
	"repro/internal/radio"
)

// testbedModel mirrors the paper's testbed parameters (§VI-A).
func testbedModel() Model {
	return Model{
		Prop:           radio.NewLogNormal2400(2.9, 4),
		TxPowerDBm:     0,
		TSIRdB:         4,
		TPRR:           0.95,
		TcsDBm:         -81,
		CSMissProb:     0.9,
		SensitivityDBm: -94,
	}
}

func TestLinkPRRUnder(t *testing.T) {
	m := testbedModel()
	p := loc.Static{
		1: geom.Pt(0, 0),  // src
		2: geom.Pt(10, 0), // dst
		3: geom.Pt(50, 0), // far interferer
		4: geom.Pt(12, 0), // near interferer
	}
	far, err := m.LinkPRRUnder(p, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	near, err := m.LinkPRRUnder(p, 1, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if far <= near {
		t.Errorf("far interferer PRR %v should exceed near %v", far, near)
	}
	if far < 0.95 {
		t.Errorf("far PRR = %v, want >= 0.95", far)
	}
	// Matches the radio package directly.
	want := m.Prop.PRR(4, 10, 40)
	if math.Abs(far-want) > 1e-12 {
		t.Errorf("PRR = %v, want %v", far, want)
	}
}

func TestLinkPRRUnderUnknownPosition(t *testing.T) {
	m := testbedModel()
	p := loc.Static{1: geom.Pt(0, 0), 2: geom.Pt(10, 0)}
	_, err := m.LinkPRRUnder(p, 1, 2, 99)
	var unknown *ErrUnknownPosition
	if !errors.As(err, &unknown) || unknown.ID != 99 {
		t.Errorf("err = %v", err)
	}
}

func TestCoexistBothDirectionsRequired(t *testing.T) {
	m := testbedModel()
	// Ongoing: C2(0,0) -> AP(10,0). My link: C11 -> AP1.
	p := loc.Static{
		1:  geom.Pt(0, 0),  // C2 (ongoing src)
		10: geom.Pt(10, 0), // AP (ongoing dst)
		2:  geom.Pt(50, 0), // C11 (me): far from AP
		11: geom.Pt(58, 0), // AP1 (my dst): far from C2
	}
	if !m.Coexist(p, 1, 10, 2, 11) {
		t.Error("well-separated links should coexist")
	}
	// Move my receiver next to the ongoing transmitter: direction 2 fails.
	p[11] = geom.Pt(3, 0)
	if m.Coexist(p, 1, 10, 2, 11) {
		t.Error("receiver near ongoing transmitter must fail validation")
	}
	p[11] = geom.Pt(58, 0)
	// Move me next to the ongoing receiver: direction 1 fails.
	p[2] = geom.Pt(12, 0)
	if m.Coexist(p, 1, 10, 2, 11) {
		t.Error("transmitter near ongoing receiver must fail validation")
	}
}

func TestCoexistUnknownPositionFails(t *testing.T) {
	m := testbedModel()
	p := loc.Static{1: geom.Pt(0, 0), 10: geom.Pt(10, 0), 2: geom.Pt(50, 0)}
	if m.Coexist(p, 1, 10, 2, 99) {
		t.Error("unknown destination position must fail validation")
	}
}

func TestHiddenTerminalDetection(t *testing.T) {
	m := testbedModel()
	// Link C1(0,0) -> AP(15,0). X at (45,0): out of C1's CS range (~39 m at
	// 90% miss), close enough to AP (30 m) to interfere. Y at (10,0): a
	// contender, not hidden.
	p := loc.Static{
		1:  geom.Pt(0, 0),
		10: geom.Pt(15, 0),
		3:  geom.Pt(45, 0),  // hidden terminal
		4:  geom.Pt(10, 0),  // contender
		5:  geom.Pt(200, 0), // too far to matter
	}
	if !m.IsHiddenTerminal(p, 1, 10, 3) {
		t.Error("X should be a hidden terminal")
	}
	if m.IsHiddenTerminal(p, 1, 10, 4) {
		t.Error("Y senses the sender; not hidden")
	}
	if m.IsHiddenTerminal(p, 1, 10, 5) {
		t.Error("distant node cannot interfere; not hidden")
	}
	// Endpoints are never their own hidden terminals.
	if m.IsHiddenTerminal(p, 1, 10, 1) || m.IsHiddenTerminal(p, 1, 10, 10) {
		t.Error("link endpoints misclassified")
	}
	hts := m.HiddenTerminals(p, 1, 10, []frame.NodeID{3, 4, 5, 1, 10})
	if len(hts) != 1 || hts[0] != 3 {
		t.Errorf("HiddenTerminals = %v", hts)
	}
}

func TestContenders(t *testing.T) {
	m := testbedModel()
	p := loc.Static{
		1: geom.Pt(0, 0),
		4: geom.Pt(10, 0), // in CS range
		3: geom.Pt(45, 0), // out of CS range
		6: geom.Pt(0, 20), // in CS range
	}
	got := m.Contenders(p, 1, []frame.NodeID{3, 4, 6, 1})
	if len(got) != 2 {
		t.Fatalf("Contenders = %v", got)
	}
	if m.IsContender(p, 1, 1) {
		t.Error("node is not its own contender")
	}
	if m.IsContender(p, 1, 99) {
		t.Error("unknown node cannot be classified as contender")
	}
}

func TestRanges(t *testing.T) {
	m := testbedModel()
	rt := m.CommunicationRange()
	// Sensitivity -94 dBm at 0 dBm tx, alpha 2.9: ~72 m.
	if rt < 50 || rt > 100 {
		t.Errorf("CommunicationRange = %v, want ~72", rt)
	}
}

func TestPRRTable(t *testing.T) {
	m := testbedModel()
	p := loc.Static{
		1:  geom.Pt(0, 0),
		10: geom.Pt(10, 0),
		2:  geom.Pt(50, 0),
		11: geom.Pt(58, 0),
	}
	entries := m.PRRTable(p, 2, 11, []Link{{Src: 1, Dst: 10}, {Src: 99, Dst: 10}})
	if len(entries) != 1 {
		t.Fatalf("entries = %+v (unknown positions must be skipped)", entries)
	}
	e := entries[0]
	if e.Neighbor != 1 {
		t.Errorf("Neighbor = %v", e.Neighbor)
	}
	if e.PRROfOngoing < 0.95 || e.PRROfMine < 0.95 {
		t.Errorf("PRRs = %+v, want both high for separated links", e)
	}
}

func TestErrUnknownPositionMessage(t *testing.T) {
	err := &ErrUnknownPosition{ID: 7}
	if err.Error() == "" {
		t.Error("empty error message")
	}
}
