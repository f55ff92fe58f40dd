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
	return eng, mk(1, geom.Pt(0, 0)), mk(2, geom.Pt(dist, 0))
}

func TestSaturatedSource(t *testing.T) {
	eng, tx, rx := buildPair(1, 0, 10)
	tx.Start(2, func() int { return 1000 }, 0)
	eng.RunUntil(time.Second)
	mbps := rx.DeliveredFrom(1).BitsPerSecond(time.Second) / 1e6
	if mbps < 0.5 {
		t.Errorf("saturated goodput = %v Mbps on a clean 1 Mbps link", mbps)
	}
}

func TestCBRSourceRespectsRate(t *testing.T) {
	eng, tx, rx := buildPair(2, 0, 10)
	const offered = 100_000.0
	tx.Start(2, func() int { return 250 }, offered)
	eng.RunUntil(2 * time.Second)
	got := rx.DeliveredFrom(1).BitsPerSecond(2 * time.Second)
	if got > 1.1*offered || got < 0.7*offered {
		t.Errorf("CBR goodput = %v, offered %v", got, offered)
	}
}

func TestStopHaltsSource(t *testing.T) {
	eng, tx, rx := buildPair(4, 0, 10)
	tx.Start(2, func() int { return 500 }, 0)
	eng.RunUntil(100 * time.Millisecond)
	tx.Pause()
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
	tx.Start(2, func() int { return 500 }, 0)
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

// TestDCFAccept pins the DCF sink's duplicate filter: only a retransmission
// repeating the last sequence number heard from its source is dropped.
func TestDCFAccept(t *testing.T) {
	d := dcf{last: make(map[frame.NodeID]uint16)}
	for i, c := range []struct {
		f    frame.Frame
		want bool
	}{
		{frame.Frame{Src: 1, Seq: 7}, true},
		{frame.Frame{Src: 1, Seq: 7, Retry: true}, false}, // the ACK was lost
		{frame.Frame{Src: 2, Seq: 7, Retry: true}, true},  // another source
		{frame.Frame{Src: 1, Seq: 8, Retry: true}, true},  // the first copy was lost
		{frame.Frame{Src: 1, Seq: 8, Retry: true}, false},
		{frame.Frame{Src: 1, Seq: 8}, true}, // not a retry: the counter wrapped
	} {
		if got := d.Accept(c.f); got != c.want {
			t.Errorf("frame %d (src %d seq %d retry %v): Accept = %v, want %v",
				i, c.f.Src, c.f.Seq, c.f.Retry, got, c.want)
		}
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

	ap.Start(1, func() int { return 600 }, 0)
	ap.Start(2, func() int { return 600 }, 0)
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

	ap.Start(2, func() int { return 500 }, 80_000)
	ap.Start(1, func() int { return 500 }, 0)
	eng.RunUntil(2 * time.Second)

	cbr := c2.DeliveredFrom(100).BitsPerSecond(2 * time.Second)
	if cbr > 100_000 || cbr < 50_000 {
		t.Errorf("CBR delivery = %.0f bps, want ~80k", cbr)
	}
	if sat := c1.DeliveredFrom(100).BitsPerSecond(2 * time.Second); sat < 3*cbr {
		t.Errorf("saturated flow should dominate: %.0f vs %.0f", sat, cbr)
	}
}

// TestPauseToAndResumeTo pauses one of an AP's two downlinks, as churn does
// when its client leaves: only that stream stops, its CBR credit stops
// accruing, and it delivers again after ResumeTo.
func TestPauseToAndResumeTo(t *testing.T) {
	eng := sim.New(9)
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
	ap.Start(1, func() int { return 500 }, 80_000)
	ap.Start(2, func() int { return 500 }, 0)

	eng.RunUntil(500 * time.Millisecond)
	ap.PauseTo(1)
	eng.RunUntil(600 * time.Millisecond)
	paused1, paused2 := c1.DeliveredFrom(100).Frames(), c2.DeliveredFrom(100).Frames()
	eng.RunUntil(1500 * time.Millisecond)
	if got := c1.DeliveredFrom(100).Frames(); got != paused1 {
		t.Errorf("paused stream delivered %d frames", got-paused1)
	}
	if c2.DeliveredFrom(100).Frames() == paused2 {
		t.Error("PauseTo(1) also stopped the stream to 2")
	}

	// 100 ms of 80 kbps is two 500-byte frames; a second of credit banked
	// while paused would release a burst of twenty.
	ap.ResumeTo(1)
	eng.RunUntil(1600 * time.Millisecond)
	resumed := c1.DeliveredFrom(100).Frames()
	if resumed-paused1 > 4 {
		t.Errorf("credit accrued while paused: %d frames in the 100 ms after ResumeTo", resumed-paused1)
	}
	eng.RunUntil(2500 * time.Millisecond)
	if c1.DeliveredFrom(100).Frames() == resumed {
		t.Error("stream to 1 did not resume")
	}
	for _, c := range []struct {
		dst  frame.NodeID
		sink *Peer
	}{{1, c1}, {2, c2}} {
		if d, m := c.sink.DeliveredFrom(100).Frames(), ap.MintedTo(c.dst); d > m {
			t.Errorf("stream to %d: delivered %d > minted %d", c.dst, d, m)
		}
	}
}
