package mac

import (
	"math"
	"testing"

	"repro/internal/audit"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/trace"
)

// TestFreshMACDigestsZeroEnergy pins the idle-channel energy of a new MAC
// at 0 mW: the digest must not change when the channel reports -Inf dBm,
// and a MAC whose stored dBm defaulted to 0 (1 mW) would fail here.
func TestFreshMACDigestsZeroEnergy(t *testing.T) {
	n := newTestNet(1, 0)
	m := n.addStation(1, geom.Pt(0, 0), basicCfg()).mac
	if got := m.energyMW(); got != 0 {
		t.Fatalf("fresh MAC energy = %v mW, want 0", got)
	}
	fresh := audit.NewHasher()
	m.DigestState(fresh)
	m.EnergyChanged(math.Inf(-1))
	idle := audit.NewHasher()
	m.DigestState(idle)
	if fresh.Sum() != idle.Sum() {
		t.Errorf("fresh digest %x differs from the idle-channel digest %x", fresh.Sum(), idle.Sum())
	}
}

// TestEnergyChangedExposedTerminalSteps drives the exposed-terminal energy
// rules directly: a latched header opportunity joins on the next energy
// rise (not on a fall), and a joined station abandons once the aggregate
// energy climbs T'cs (in mW) above the RSSI1 baseline — not before. T'cs is
// the CCA threshold, -81 dBm ≈ 7.9e-9 mW.
func TestEnergyChangedExposedTerminalSteps(t *testing.T) {
	n := newTestNet(1, 0)
	cfg := basicCfg()
	cfg.Concurrency = allowAll{}
	buf := &trace.Buffer{}
	cfg.Trace = buf
	m := n.addStation(1, geom.Pt(0, 0), cfg).mac
	if err := m.Enqueue(frame.Frame{Kind: frame.Data, Dst: 2, PayloadBytes: 100}); err != nil {
		t.Fatal(err)
	}
	count := func(kind string) int {
		c := 0
		for _, e := range buf.Events {
			if e.Kind == kind {
				c++
			}
		}
		return c
	}
	header := frame.Frame{Kind: frame.ComapHeader, Src: 5, Dst: 6}

	m.EnergyChanged(-70)
	m.onHeaderDecoded(header, 0)
	m.EnergyChanged(-75) // a fall is not the announced frame starting
	if !m.concPending || m.concurrent || count(trace.KindETJoin) != 0 {
		t.Fatalf("joined on an energy fall: pending %v concurrent %v", m.concPending, m.concurrent)
	}
	m.EnergyChanged(-70) // 1e-7 mW: the announced data frame is on the air
	if m.concPending || !m.concurrent || count(trace.KindETJoin) != 1 {
		t.Fatalf("no join on the energy rise: pending %v concurrent %v", m.concPending, m.concurrent)
	}
	if m.rssi1MW != m.energyMW() {
		t.Errorf("RSSI1 = %v mW, want the energy at the join %v mW", m.rssi1MW, m.energyMW())
	}
	m.EnergyChanged(-69.7) // +7.2e-9 mW: below the step
	if !m.concurrent || m.Stats().Get("et.abandon") != 0 {
		t.Fatal("abandoned on a rise smaller than T'cs")
	}
	m.EnergyChanged(-69.5) // +1.2e-8 mW: a second exposed terminal
	if m.concurrent || m.Stats().Get("et.abandon") != 1 || count(trace.KindETAbandon) != 1 {
		t.Errorf("no abandon on a step of T'cs: concurrent %v abandons %d", m.concurrent, m.Stats().Get("et.abandon"))
	}
}
