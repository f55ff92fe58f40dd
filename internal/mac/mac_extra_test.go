package mac

import (
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/phy"
)

func TestSetFixedCW(t *testing.T) {
	n := newTestNet(31, 0)
	a := n.addStation(1, geom.Pt(0, 0), basicCfg())
	a.mac.SetFixedCW(64)
	if a.mac.cw != 64 {
		t.Errorf("cw = %d", a.mac.cw)
	}
	a.mac.SetFixedCW(0) // invalid: ignored
	if a.mac.cw != 64 {
		t.Errorf("cw after invalid set = %d", a.mac.cw)
	}
}

func TestPersistentConcurrentAccessors(t *testing.T) {
	n := newTestNet(32, 0)
	a := n.addStation(1, geom.Pt(0, 0), basicCfg())
	if a.mac.persistent {
		t.Error("persistent should default off")
	}
	a.mac.SetPersistentConcurrent(true)
	if !a.mac.persistent {
		t.Error("persistent not set")
	}
	a.mac.SetPersistentConcurrent(true) // idempotent
	a.mac.SetPersistentConcurrent(false)
	if a.mac.persistent {
		t.Error("persistent not cleared")
	}
}

func TestPersistentConcurrentTransmitsThroughBusy(t *testing.T) {
	// A station in persistent mode counts its backoff down through a foreign
	// transmission and sends concurrently.
	n := newTestNet(33, 0)
	cfg := basicCfg()
	cfg.FixedCW = 4
	a := n.addStation(1, geom.Pt(0, 0), cfg)
	b := n.addStation(2, geom.Pt(20, 0), cfg)
	n.addStation(11, geom.Pt(-8, 0), basicCfg())
	n.addStation(12, geom.Pt(28, 0), basicCfg())

	b.mac.SetPersistentConcurrent(true)
	// A long frame from A occupies the air; B enqueues during it.
	_ = a.mac.Enqueue(frame.Frame{Kind: frame.Data, Dst: 11, PayloadBytes: 1400})
	n.eng.After(2*time.Millisecond, func() {
		_ = b.mac.Enqueue(frame.Frame{Kind: frame.Data, Dst: 12, PayloadBytes: 200})
	})
	n.eng.Run()
	if got := b.mac.Stats().Get("et.concurrent_tx"); got != 1 {
		t.Errorf("et.concurrent_tx = %d, want 1", got)
	}
	if len(b.completed) != 1 || !b.completed[0].acked {
		t.Errorf("b completions = %+v", b.completed)
	}
}

func TestNAVDefersThroughAckTail(t *testing.T) {
	// C decodes A's data frame to B and must hold off through the SIFS+ACK
	// tail even though the medium is physically idle in the gap.
	n := newTestNet(34, 0)
	cfg := basicCfg()
	cfg.FixedCW = 1 // zero backoff: C would jump into the gap without NAV
	a := n.addStation(1, geom.Pt(0, 0), cfg)
	b := n.addStation(2, geom.Pt(8, 0), cfg)
	c := n.addStation(3, geom.Pt(4, 7), cfg)

	_ = a.mac.Enqueue(frame.Frame{Kind: frame.Data, Dst: 2, Seq: 1, PayloadBytes: 800})
	// C's frame becomes pending exactly when A's data is mid-air.
	n.eng.After(2*time.Millisecond, func() {
		_ = c.mac.Enqueue(frame.Frame{Kind: frame.Data, Dst: 2, Seq: 2, PayloadBytes: 100})
	})
	n.eng.Run()
	// Both exchanges must succeed: without NAV, C's frame would collide with
	// B's ACK at A (and cost a retry).
	if got := a.mac.Stats().Get("ack.timeout"); got != 0 {
		t.Errorf("A suffered %d ack timeouts (NAV not honoured?)", got)
	}
	if len(b.received) != 2 {
		t.Errorf("B received %d frames", len(b.received))
	}
}

func TestEIFSAfterCorruptedFrame(t *testing.T) {
	// After receiving a corrupted frame the next deferral uses EIFS.
	n := newTestNet(35, 0)
	a := n.addStation(1, geom.Pt(0, 0), basicCfg())
	a.mac.eifs = true
	a.mac.busy = false
	if err := a.mac.Enqueue(frame.Frame{Kind: frame.Data, Dst: 9, PayloadBytes: 10}); err != nil {
		t.Fatal(err)
	}
	// The first transmission must start no earlier than EIFS.
	start := a.mac.cfg.PHY.EIFS()
	n.eng.RunUntil(start - time.Microsecond)
	if a.mac.Stats().Get("tx.data") != 0 {
		t.Error("transmitted before EIFS elapsed")
	}
	n.eng.RunUntil(start + time.Microsecond)
	if a.mac.Stats().Get("tx.data") != 1 {
		t.Error("did not transmit right after EIFS")
	}
}

// fixedCap caps every concurrent transmission to 1 Mbps.
type fixedCap struct{}

func (fixedCap) CapRate(_, _, _ frame.NodeID, chosen phy.Rate) phy.Rate {
	if chosen.BitsPerSec > 1e6 {
		return phy.RateDSSS1
	}
	return chosen
}

func TestRateCapAppliedOnlyWhenConcurrent(t *testing.T) {
	n := newTestNet(36, 0)
	cfg := basicCfg()
	cfg.FixedCW = 8
	cfg.SendDiscoveryHeader = true
	cfg.Concurrency = allowAll{}
	cfg.RateCap = fixedCap{}
	cfg.Rates = fixedRate{phy.RateDSSS11}
	a, bSt, _, _ := exposedTerminalTopology(n, cfg)

	for i := 0; i < 30; i++ {
		_ = a.mac.Enqueue(frame.Frame{Kind: frame.Data, Dst: 11, Seq: uint16(i), PayloadBytes: 400})
		_ = bSt.mac.Enqueue(frame.Frame{Kind: frame.Data, Dst: 12, Seq: uint16(i), PayloadBytes: 400})
	}
	n.eng.RunUntil(3 * time.Second)
	for _, s := range []*station{a, bSt} {
		conc := s.mac.Stats().Get("et.concurrent_tx")
		capped := s.mac.Stats().Get("tx.rate.1M")
		full := s.mac.Stats().Get("tx.rate.11M")
		if conc == 0 {
			t.Fatalf("station %d never transmitted concurrently", s.mac.ID())
		}
		if capped == 0 {
			t.Errorf("station %d: rate cap never applied (conc=%d)", s.mac.ID(), conc)
		}
		if full == 0 {
			t.Errorf("station %d: non-concurrent transmissions should stay at 11M", s.mac.ID())
		}
	}
}

// fixedRate is a RateSelector pinned to one rate.
type fixedRate struct{ r phy.Rate }

func (f fixedRate) RateFor(frame.NodeID) phy.Rate         { return f.r }
func (f fixedRate) Feedback(frame.NodeID, phy.Rate, bool) {}

func TestAckCovers(t *testing.T) {
	tests := []struct {
		name string
		ack  frame.Frame
		seq  uint16
		want bool
	}{
		{"direct match", frame.Frame{Kind: frame.Ack, Seq: 5}, 5, true},
		{"plain ack other seq", frame.Frame{Kind: frame.Ack, Seq: 6}, 5, false},
		{"srack direct", frame.Frame{Kind: frame.SRAck, Seq: 9}, 9, true},
		{"srack bitmap hit", frame.Frame{Kind: frame.SRAck, Seq: 9, Bitmap: 1 << 3}, 5, true},
		{"srack bitmap miss", frame.Frame{Kind: frame.SRAck, Seq: 9, Bitmap: 1 << 2}, 5, false},
		{"srack too old", frame.Frame{Kind: frame.SRAck, Seq: 100, Bitmap: ^uint32(0)}, 5, false},
		{"wraparound", frame.Frame{Kind: frame.SRAck, Seq: 2, Bitmap: 1 << 4}, 0xFFFD, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ackCovers(tt.ack, tt.seq); got != tt.want {
				t.Errorf("ackCovers = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestLocationBeaconBroadcastPath(t *testing.T) {
	n := newTestNet(37, 0)
	a := n.addStation(1, geom.Pt(0, 0), basicCfg())
	obs := n.addStation(2, geom.Pt(8, 0), basicCfg())
	var beacons []frame.Frame
	obs.mac.SetHooks(Hooks{OnControl: func(f frame.Frame, _ float64) {
		beacons = append(beacons, f)
	}})
	_ = a.mac.Enqueue(frame.Frame{Kind: frame.LocationBeacon, Dst: frame.Broadcast, Seq: 1, X: 3, Y: 4})
	n.eng.Run()
	if len(beacons) != 1 || beacons[0].X != 3 || beacons[0].Y != 4 {
		t.Errorf("beacons = %+v", beacons)
	}
	// Beacons complete without an ACK exchange.
	if len(a.completed) != 1 || !a.completed[0].acked {
		t.Errorf("completions = %+v", a.completed)
	}
	if a.mac.Stats().Get("ack.timeout") != 0 {
		t.Error("beacon waited for an ACK")
	}
}

func TestTransceiverAccessor(t *testing.T) {
	n := newTestNet(38, 0)
	a := n.addStation(1, geom.Pt(0, 0), basicCfg())
	if a.mac.tr == nil || a.mac.tr.ID() != 1 {
		t.Error("MAC not wired to its transceiver")
	}
}
