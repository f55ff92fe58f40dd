package comap

import (
	"testing"
	"time"

	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
)

// buildStar wires one AP endpoint with two client endpoints around it.
func buildStar(seed int64) (eng *sim.Engine, ap, c1, c2 *Endpoint) {
	eng = sim.New(seed)
	medium := channel.NewMedium(eng, radio.NewLogNormal2400(2.9, 0), -95)
	cfg := mac.Config{PHY: phy.DSSS(), CCAThresholdDBm: -81, FixedCW: 8, NoRetransmit: true}
	mk := func(id frame.NodeID, pos geom.Point) *Endpoint {
		tr := medium.AddNode(id, pos, 0, nil)
		m := mac.New(eng, tr, cfg)
		tr.SetListener(m)
		return NewEndpoint(eng, m)
	}
	ap = mk(100, geom.Pt(0, 0))
	c1 = mk(1, geom.Pt(10, 0))
	c2 = mk(2, geom.Pt(0, 10))
	return eng, ap, c1, c2
}

func TestEndpointMultiStreamRoundRobin(t *testing.T) {
	eng, ap, c1, c2 := buildStar(1)
	// The AP serves two downlinks; both must make progress.
	ap.Start(1, func() int { return 600 }, 0)
	ap.Start(2, func() int { return 600 }, 0)
	// Per-stream ARQ state is independent.
	if ap.SenderTo(1) == nil || ap.SenderTo(2) == nil {
		t.Fatal("missing stream senders")
	}
	acks := map[frame.NodeID]*metrics.Registry{1: metrics.NewRegistry(), 2: metrics.NewRegistry()}
	for dst, reg := range acks {
		ap.SenderTo(dst).(*arq.Sender).Instrument(reg, eng.Now)
	}
	eng.RunUntil(time.Second)

	g1 := c1.DeliveredFrom(100).Frames()
	g2 := c2.DeliveredFrom(100).Frames()
	if g1 == 0 || g2 == 0 {
		t.Fatalf("starved stream: c1=%d c2=%d", g1, g2)
	}
	// Round-robin fairness within 20%.
	ratio := float64(g1) / float64(g2)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("unfair split: c1=%d c2=%d", g1, g2)
	}
	for dst, reg := range acks {
		if reg.Snapshot().Timings["arq.delivery_latency"].N == 0 {
			t.Errorf("stream to %d: per-stream ACK accounting broken", dst)
		}
	}
	if ap.SenderTo(99) != nil {
		t.Error("unknown stream should be nil")
	}
}

func TestEndpointMixedSaturatedAndCBRStreams(t *testing.T) {
	eng, ap, c1, c2 := buildStar(2)
	ap.Start(1, func() int { return 600 }, 0)       // saturated
	ap.Start(2, func() int { return 600 }, 100_000) // 100 kbps
	eng.RunUntil(2 * time.Second)

	cbr := c2.DeliveredFrom(100).BitsPerSecond(2 * time.Second)
	if cbr > 120_000 {
		t.Errorf("CBR stream exceeded its offered load: %.0f bps", cbr)
	}
	if cbr < 60_000 {
		t.Errorf("CBR stream starved: %.0f bps", cbr)
	}
	// The saturated stream takes the remaining capacity.
	sat := c1.DeliveredFrom(100).BitsPerSecond(2 * time.Second)
	if sat < 5*cbr {
		t.Errorf("saturated stream got %.0f bps vs CBR %.0f", sat, cbr)
	}
}

func TestEndpointUplinkAndDownlinkTogether(t *testing.T) {
	eng, ap, c1, _ := buildStar(3)
	ap.Start(1, func() int { return 500 }, 0)
	c1.Start(100, func() int { return 500 }, 0)
	eng.RunUntil(time.Second)
	down := c1.DeliveredFrom(100).Frames()
	up := ap.DeliveredFrom(1).Frames()
	if down == 0 || up == 0 {
		t.Errorf("two-way starvation: down=%d up=%d", down, up)
	}
}
