package comap

import (
	"fmt"
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

// buildLink wires two stations at the given separation with CO-MAP
// endpoints.
func buildLink(seed int64, sigmaDB, dist float64) (eng *sim.Engine, tx, rx *Endpoint) {
	eng = sim.New(seed)
	medium := channel.NewMedium(eng, radio.NewLogNormal2400(2.9, sigmaDB), -95)
	cfg := mac.Config{
		PHY:             phy.DSSS(),
		CCAThresholdDBm: -81,
		FixedCW:         8,
		NoRetransmit:    true,
	}
	mk := func(id frame.NodeID, pos geom.Point) *Endpoint {
		tr := medium.AddNode(id, pos, 0, nil)
		m := mac.New(eng, tr, cfg)
		tr.SetListener(m)
		return NewEndpoint(eng, m)
	}
	tx = mk(1, geom.Pt(0, 0))
	rx = mk(2, geom.Pt(dist, 0))
	return eng, tx, rx
}

// arqCounts instruments ep's future streams and returns a reader of how many
// frames their ARQ senders saw acknowledged and how many they dropped.
func arqCounts(ep *Endpoint) func() (acked, dropped int64) {
	reg := metrics.NewRegistry()
	ep.SetMetrics(reg)
	return func() (int64, int64) {
		snap := reg.Snapshot()
		return int64(snap.Timings["arq.delivery_latency"].N), snap.Counters["arq.dropped"]
	}
}

// TestEndpointSaturatedStreamDelivers runs a saturated stream over a clean
// link. The endpoint's window is arq.DefaultWindow; the subtest names it.
func TestEndpointSaturatedStreamDelivers(t *testing.T) {
	t.Run(fmt.Sprintf("window-%d", arq.DefaultWindow), func(t *testing.T) {
		eng, tx, rx := buildLink(1, 0, 10)
		counts := arqCounts(tx)
		tx.Start(2, func() int { return 1000 }, 0)
		eng.RunUntil(time.Second)

		if rx.DeliveredFrom(1).Frames() == 0 {
			t.Fatal("no frames delivered")
		}
		if mbps := rx.DeliveredFrom(1).BitsPerSecond(time.Second) / 1e6; mbps < 0.5 {
			t.Errorf("goodput = %v Mbps on a clean 1 Mbps link", mbps)
		}
		// The sender's ARQ should have learned about the deliveries.
		acked, dropped := counts()
		if acked == 0 {
			t.Error("sender never saw an SR ACK")
		}
		if dropped != 0 {
			t.Errorf("clean link dropped %d frames", dropped)
		}
	})
}

func TestEndpointDeliveredCountsUniqueOnly(t *testing.T) {
	// Marginal link with shadowing: many losses and retransmissions.
	eng, tx, rx := buildLink(2, 4, 68)
	tx.Start(2, func() int { return 500 }, 0)
	eng.RunUntil(2 * time.Second)

	sent := tx.m.Stats().Get("tx.data")
	delivered := rx.DeliveredFrom(1).Frames()
	if delivered == 0 {
		t.Fatal("nothing delivered on marginal link")
	}
	if delivered >= sent {
		t.Errorf("delivered %d >= transmissions %d on lossy link (dedup broken?)", delivered, sent)
	}
	// Retransmissions must have happened (that's the point of SR ARQ here).
	if tx.m.Stats().Get("ack.timeout") == 0 {
		t.Error("expected ACK timeouts on marginal link")
	}
}

func TestEndpointSRAckUsed(t *testing.T) {
	eng, tx, rx := buildLink(3, 0, 10)
	counts := arqCounts(tx)
	tx.Start(2, func() int { return 800 }, 0)
	eng.RunUntil(500 * time.Millisecond)
	if acked, _ := counts(); acked == 0 {
		t.Error("SR ACKs did not reach the sender's ARQ")
	}
	if rx.DeliveredFrom(1).Frames() == 0 {
		t.Error("no deliveries")
	}
}

func TestEndpointCBRStreamRespectsRate(t *testing.T) {
	eng, tx, rx := buildLink(4, 0, 10)
	const offered = 200_000.0 // 200 kbps over a 1 Mbps channel
	tx.Start(2, func() int { return 500 }, offered)
	eng.RunUntil(2 * time.Second)

	got := rx.DeliveredFrom(1).BitsPerSecond(2 * time.Second)
	if got > 1.1*offered {
		t.Errorf("goodput %v exceeds offered load %v", got, offered)
	}
	if got < 0.7*offered {
		t.Errorf("goodput %v far below offered load %v on a clean link", got, offered)
	}
}

func TestEndpointStopStream(t *testing.T) {
	eng, tx, rx := buildLink(5, 0, 10)
	tx.Start(2, func() int { return 500 }, 0)
	eng.RunUntil(100 * time.Millisecond)
	tx.Pause()
	delivered := rx.DeliveredFrom(1).Frames()
	eng.RunUntil(500 * time.Millisecond)
	// The frames already queued in the MAC (two) and the window's
	// retransmissions may still drain, then the stream stops.
	drained := rx.DeliveredFrom(1).Frames() - delivered
	if drained > arq.DefaultWindow+2 {
		t.Errorf("stream kept flowing after pause: %d extra frames", drained)
	}
}

func TestEndpointPayloadFunctionConsultedPerFrame(t *testing.T) {
	eng, tx, rx := buildLink(6, 0, 10)
	sizes := []int{1400, 1000, 600, 200}
	i := 0
	tx.Start(2, func() int {
		s := sizes[i%len(sizes)]
		i++
		return s
	}, 0)
	eng.RunUntil(300 * time.Millisecond)
	if rx.DeliveredFrom(1).Frames() < 4 {
		t.Fatal("too few deliveries")
	}
	if i < 4 {
		t.Errorf("payload function consulted %d times", i)
	}
	_ = eng
}

func TestEndpointTwoWayTraffic(t *testing.T) {
	eng, a, b := buildLink(7, 0, 10)
	a.Start(2, func() int { return 700 }, 0)
	b.Start(1, func() int { return 700 }, 0)
	eng.RunUntil(time.Second)
	if a.DeliveredFrom(2).Frames() == 0 || b.DeliveredFrom(1).Frames() == 0 {
		t.Errorf("two-way deliveries: a=%d b=%d",
			a.DeliveredFrom(2).Frames(), b.DeliveredFrom(1).Frames())
	}
}
