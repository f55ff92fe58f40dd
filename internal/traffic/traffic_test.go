package traffic

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

func buildPair(seed int64, sigmaDB, dist float64) (*sim.Engine, *Peer, *Peer) {
	eng := sim.New(seed)
	medium := channel.NewMedium(eng, radio.NewLogNormal2400(2.9, sigmaDB), -95)
	cfg := mac.Config{PHY: phy.DSSS(), CCAThresholdDBm: -81, FixedCW: 8}
	mk := func(id frame.NodeID, pos geom.Point) *Peer {
		tr := medium.AddNode(id, pos, 0, nil)
		m := mac.New(eng, tr, cfg)
		tr.SetListener(m)
		return NewPeer(eng, m)
	}
	return eng, mk(1, geom.Pt(0, 0)), mk(2, geom.Pt(10, 0))
}

func TestSaturatedSource(t *testing.T) {
	eng, tx, rx := buildPair(1, 0, 10)
	tx.StartSaturated(2, func() int { return 1000 })
	eng.RunUntil(time.Second)
	mbps := rx.DeliveredFrom(1).BitsPerSecond(time.Second) / 1e6
	if mbps < 0.5 {
		t.Errorf("saturated goodput = %v Mbps on a clean 1 Mbps link", mbps)
	}
}

func TestCBRSourceRespectsRate(t *testing.T) {
	eng, tx, rx := buildPair(2, 0, 10)
	const offered = 100_000.0
	tx.StartCBR(2, func() int { return 250 }, offered)
	eng.RunUntil(2 * time.Second)
	got := rx.DeliveredFrom(1).BitsPerSecond(2 * time.Second)
	if got > 1.1*offered || got < 0.7*offered {
		t.Errorf("CBR goodput = %v, offered %v", got, offered)
	}
}

func TestStopHaltsSource(t *testing.T) {
	eng, tx, rx := buildPair(4, 0, 10)
	tx.StartSaturated(2, func() int { return 500 })
	eng.RunUntil(100 * time.Millisecond)
	tx.Stop()
	before := rx.DeliveredFrom(1).Frames()
	eng.RunUntil(time.Second)
	after := rx.DeliveredFrom(1).Frames()
	if after-before > queueTarget {
		t.Errorf("source kept flowing after Stop: %d extra", after-before)
	}
}

func TestSinkDedup(t *testing.T) {
	// A marginal link with shadowing causes ACK losses and therefore MAC
	// retransmissions of already-delivered frames; the sink must not double
	// count.
	eng, tx, rx := buildPair(5, 4, 66)
	tx.StartSaturated(2, func() int { return 500 })
	eng.RunUntil(2 * time.Second)
	if rx.DeliveredFrom(1).Frames() == 0 {
		t.Fatal("nothing delivered")
	}
	retries := tx.m.Stats().Get("tx.retry")
	if retries == 0 {
		t.Skip("no retransmissions occurred; dedup not exercised at this seed")
	}
	// Unique deliveries can never exceed distinct sequence numbers sent.
	sent := tx.m.Stats().Get("tx.data") - retries
	if rx.DeliveredFrom(1).Frames() > sent {
		t.Errorf("delivered %d > unique frames sent %d", rx.DeliveredFrom(1).Frames(), sent)
	}
}

func TestMultiSourceRoundRobin(t *testing.T) {
	eng := sim.New(7)
	medium := channel.NewMedium(eng, radio.NewLogNormal2400(2.9, 0), -95)
	cfg := mac.Config{PHY: phy.DSSS(), CCAThresholdDBm: -81, FixedCW: 8}
	mk := func(id frame.NodeID, pos geom.Point) *Peer {
		tr := medium.AddNode(id, pos, 0, nil)
		m := mac.New(eng, tr, cfg)
		tr.SetListener(m)
		return NewPeer(eng, m)
	}
	ap := mk(100, geom.Pt(0, 0))
	c1 := mk(1, geom.Pt(10, 0))
	c2 := mk(2, geom.Pt(0, 10))

	ap.StartSaturated(1, func() int { return 600 })
	ap.StartSaturated(2, func() int { return 600 })
	eng.RunUntil(time.Second)

	g1 := c1.DeliveredFrom(100).Frames()
	g2 := c2.DeliveredFrom(100).Frames()
	if g1 == 0 || g2 == 0 {
		t.Fatalf("starved destination: c1=%d c2=%d", g1, g2)
	}
	if ratio := float64(g1) / float64(g2); ratio < 0.8 || ratio > 1.25 {
		t.Errorf("unfair split: c1=%d c2=%d", g1, g2)
	}
}

func TestMixedCBRAndSaturatedSources(t *testing.T) {
	eng := sim.New(8)
	medium := channel.NewMedium(eng, radio.NewLogNormal2400(2.9, 0), -95)
	cfg := mac.Config{PHY: phy.DSSS(), CCAThresholdDBm: -81, FixedCW: 8}
	mk := func(id frame.NodeID, pos geom.Point) *Peer {
		tr := medium.AddNode(id, pos, 0, nil)
		m := mac.New(eng, tr, cfg)
		tr.SetListener(m)
		return NewPeer(eng, m)
	}
	ap := mk(100, geom.Pt(0, 0))
	c1 := mk(1, geom.Pt(10, 0))
	c2 := mk(2, geom.Pt(0, 10))

	ap.StartCBR(2, func() int { return 500 }, 80_000)
	ap.StartSaturated(1, func() int { return 500 })
	eng.RunUntil(2 * time.Second)

	cbr := c2.DeliveredFrom(100).BitsPerSecond(2 * time.Second)
	if cbr > 100_000 || cbr < 50_000 {
		t.Errorf("CBR delivery = %.0f bps, want ~80k", cbr)
	}
	if sat := c1.DeliveredFrom(100).BitsPerSecond(2 * time.Second); sat < 3*cbr {
		t.Errorf("saturated flow should dominate: %.0f vs %.0f", sat, cbr)
	}
}
