package mac

import (
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/geom"
)

func rtsCfg() Config {
	cfg := basicCfg()
	cfg.FixedCW = 16
	cfg.RTSThresholdBytes = 1
	return cfg
}

func TestRTSCTSBasicExchange(t *testing.T) {
	n := newTestNet(21, 0)
	a := n.addStation(1, geom.Pt(0, 0), rtsCfg())
	b := n.addStation(2, geom.Pt(8, 0), rtsCfg())
	if err := a.mac.Enqueue(frame.Frame{Kind: frame.Data, Dst: 2, Seq: 1, PayloadBytes: 500}); err != nil {
		t.Fatal(err)
	}
	n.eng.Run()
	if len(b.received) != 1 {
		t.Fatalf("received %d frames", len(b.received))
	}
	if len(a.completed) != 1 || !a.completed[0].acked {
		t.Fatalf("completions = %+v", a.completed)
	}
	if a.mac.Stats().Get("tx.rts") != 1 {
		t.Errorf("tx.rts = %d", a.mac.Stats().Get("tx.rts"))
	}
	if b.mac.Stats().Get("rx.rts") != 1 {
		t.Errorf("rx.rts = %d", b.mac.Stats().Get("rx.rts"))
	}
	if a.mac.Stats().Get("cts.timeout") != 0 {
		t.Errorf("cts.timeout = %d", a.mac.Stats().Get("cts.timeout"))
	}
}

func TestRTSThresholdSelectsSmallFramesDirectly(t *testing.T) {
	n := newTestNet(22, 0)
	cfg := rtsCfg()
	cfg.RTSThresholdBytes = 400
	a := n.addStation(1, geom.Pt(0, 0), cfg)
	n.addStation(2, geom.Pt(8, 0), rtsCfg())
	_ = a.mac.Enqueue(frame.Frame{Kind: frame.Data, Dst: 2, Seq: 1, PayloadBytes: 100})
	_ = a.mac.Enqueue(frame.Frame{Kind: frame.Data, Dst: 2, Seq: 2, PayloadBytes: 900})
	n.eng.Run()
	if got := a.mac.Stats().Get("tx.rts"); got != 1 {
		t.Errorf("tx.rts = %d, want 1 (only the 900-byte frame)", got)
	}
	if len(a.completed) != 2 {
		t.Errorf("completions = %d", len(a.completed))
	}
}

func TestCTSTimeoutRetriesAndGivesUp(t *testing.T) {
	n := newTestNet(23, 0)
	a := n.addStation(1, geom.Pt(0, 0), rtsCfg())
	// Destination 9 does not exist: no CTS ever comes.
	if err := a.mac.Enqueue(frame.Frame{Kind: frame.Data, Dst: 9, PayloadBytes: 500}); err != nil {
		t.Fatal(err)
	}
	n.eng.Run()
	if got := a.mac.Stats().Get("cts.timeout"); got != 1+retryLimit { // initial + 7 retries
		t.Errorf("cts.timeout = %d, want %d", got, 1+retryLimit)
	}
	if got := a.mac.Stats().Get("tx.data"); got != 0 {
		t.Errorf("data sent without CTS: %d", got)
	}
	if len(a.completed) != 1 || a.completed[0].acked {
		t.Errorf("completions = %+v", a.completed)
	}
}

// TestRTSCTSMitigatesHiddenTerminals is the classic motivation: two hidden
// senders and an AP in the middle. With RTS/CTS the AP's CTS reserves the
// medium at the opposite sender, so data collisions drop sharply versus the
// bare-DCF hidden-terminal scenario.
func TestRTSCTSMitigatesHiddenTerminals(t *testing.T) {
	run := func(rts bool) (delivered int, dataTimeouts int64) {
		n := newTestNet(24, 0)
		cfg := basicCfg()
		cfg.FixedCW = 16
		if rts {
			cfg.RTSThresholdBytes = 1
		}
		c1 := n.addStation(1, geom.Pt(0, 0), cfg)
		c2 := n.addStation(2, geom.Pt(36, 0), cfg)
		ap := n.addStation(10, geom.Pt(18, 0), cfg)
		for i := 0; i < 60; i++ {
			_ = c1.mac.Enqueue(frame.Frame{Kind: frame.Data, Dst: 10, Seq: uint16(i), PayloadBytes: 800})
			_ = c2.mac.Enqueue(frame.Frame{Kind: frame.Data, Dst: 10, Seq: uint16(i), PayloadBytes: 800})
		}
		n.eng.RunUntil(8 * time.Second)
		return len(ap.received),
			c1.mac.Stats().Get("ack.timeout") + c2.mac.Stats().Get("ack.timeout")
	}
	plainDelivered, plainTimeouts := run(false)
	rtsDelivered, rtsTimeouts := run(true)

	if plainTimeouts == 0 {
		t.Fatal("bare DCF hidden terminals produced no collisions (scenario broken)")
	}
	if rtsTimeouts >= plainTimeouts/2 {
		t.Errorf("RTS/CTS data timeouts %d not well below bare DCF %d", rtsTimeouts, plainTimeouts)
	}
	if rtsDelivered <= plainDelivered {
		t.Errorf("RTS/CTS delivered %d <= bare DCF %d", rtsDelivered, plainDelivered)
	}
}

func TestRTSCTSBystanderNAV(t *testing.T) {
	// A bystander that hears only the CTS must defer for the whole exchange.
	n := newTestNet(25, 0)
	cfg := rtsCfg()
	a := n.addStation(1, geom.Pt(0, 0), cfg)
	b := n.addStation(2, geom.Pt(8, 0), cfg)
	bystander := n.addStation(3, geom.Pt(14, 0), cfg)

	_ = a.mac.Enqueue(frame.Frame{Kind: frame.Data, Dst: 2, PayloadBytes: 1200})
	// The bystander has its own frame for a far node; it must wait for the
	// exchange (NAV) even though the air is locally idle between segments.
	done := false
	n.eng.Schedule(time.Microsecond, func() {
		_ = bystander.mac.Enqueue(frame.Frame{Kind: frame.Data, Dst: 2, Seq: 9, PayloadBytes: 100})
		done = true
	})
	n.eng.Run()
	if !done {
		t.Fatal("setup failed")
	}
	// Both frames must complete despite the contention.
	if len(a.completed) != 1 || !a.completed[0].acked {
		t.Errorf("a completions = %+v", a.completed)
	}
	if len(bystander.completed) != 1 {
		t.Errorf("bystander completions = %+v", bystander.completed)
	}
	if got := len(b.received); got != 2 {
		t.Errorf("b received %d frames, want 2", got)
	}
}
