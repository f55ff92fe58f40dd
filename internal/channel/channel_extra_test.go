package channel

import (
	"math"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
)

func TestCaptureRelocksOntoStrongFrame(t *testing.T) {
	eng, m := newTestMedium(t, 1)
	rx := &recorder{}
	far := m.AddNode(1, geom.Pt(40, 0), 0, &recorder{})
	near := m.AddNode(3, geom.Pt(5, 0), 0, &recorder{})
	m.AddNode(2, geom.Pt(0, 0), 0, rx)

	// Weak frame first, then a much stronger one: the radio must re-lock.
	if err := far.Transmit(frame.Frame{Kind: frame.Data, Src: 1, Dst: 2, PayloadBytes: 800},
		phy.RateDSSS1, 4*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	eng.After(time.Millisecond, func() {
		if err := near.Transmit(frame.Frame{Kind: frame.Data, Src: 3, Dst: 2, PayloadBytes: 200},
			phy.RateDSSS1, time.Millisecond); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	// The strong frame is delivered (capture); the weak one is silently lost.
	if len(rx.frames) != 1 {
		t.Fatalf("frames = %+v", rx.frames)
	}
	if rx.frames[0].f.Src != 3 || !rx.frames[0].ok {
		t.Errorf("capture delivered %+v", rx.frames[0])
	}
}

// TestCaptureNeedsMargin pins the capture margin: a second frame stronger
// than the locked one, but by less than captureMarginDB, cannot steal the
// radio. It only corrupts the locked frame, which is delivered failed.
func TestCaptureNeedsMargin(t *testing.T) {
	eng, m := newTestMedium(t, 1)
	rx := &recorder{}
	far := m.AddNode(1, geom.Pt(20, 0), 0, &recorder{})
	near := m.AddNode(3, geom.Pt(12, 0), 0, &recorder{})
	m.AddNode(2, geom.Pt(0, 0), 0, rx)
	if gap := m.model.MeanReceivedDBm(0, 12) - m.model.MeanReceivedDBm(0, 20); gap <= 0 || gap >= captureMarginDB {
		t.Fatalf("near frame is %v dB stronger; the test needs 0 < gap < %v", gap, captureMarginDB)
	}

	_ = far.Transmit(frame.Frame{Kind: frame.Data, Src: 1, Dst: 2, PayloadBytes: 800},
		phy.RateDSSS1, 4*time.Millisecond)
	eng.After(time.Millisecond, func() {
		_ = near.Transmit(frame.Frame{Kind: frame.Data, Src: 3, Dst: 2, PayloadBytes: 200},
			phy.RateDSSS1, time.Millisecond)
	})
	eng.Run()
	// The radio stays on the weak frame, which the strong one corrupts.
	if len(rx.frames) != 1 {
		t.Fatalf("frames = %+v", rx.frames)
	}
	if rx.frames[0].f.Src != 1 || rx.frames[0].ok {
		t.Errorf("below-margin arrival delivered %+v", rx.frames[0])
	}
}

func TestHeaderIndicationEmitted(t *testing.T) {
	eng, m := newTestMedium(t, 1)
	p := phy.DSSS()
	m.HeaderIndicationAt = func(r phy.Rate) time.Duration {
		return p.PreambleHeader + p.PayloadAirtime(r, phy.MACHeaderBytes+4)
	}
	rx := &recorder{}
	a := m.AddNode(1, geom.Pt(0, 0), 0, &recorder{})
	m.AddNode(2, geom.Pt(10, 0), 0, rx)

	if err := a.Transmit(frame.Frame{Kind: frame.Data, Src: 1, Dst: 2, Seq: 7, PayloadBytes: 500},
		phy.RateDSSS11, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Expect the in-flight header indication (Retry=true) before the data.
	if len(rx.frames) != 2 {
		t.Fatalf("frames = %+v", rx.frames)
	}
	hdr := rx.frames[0]
	if hdr.f.Kind != frame.ComapHeader || !hdr.f.Retry || hdr.f.Src != 1 || hdr.f.Dst != 2 {
		t.Errorf("header indication = %+v", hdr.f)
	}
	if rx.frames[1].f.Kind != frame.Data {
		t.Errorf("second delivery = %+v", rx.frames[1].f)
	}
}

func TestHeaderIndicationSkipsCorruptedLocks(t *testing.T) {
	eng, m := newTestMedium(t, 1)
	p := phy.DSSS()
	m.HeaderIndicationAt = func(r phy.Rate) time.Duration {
		return p.PreambleHeader + p.PayloadAirtime(r, phy.MACHeaderBytes+4)
	}
	rx := &recorder{}
	a := m.AddNode(1, geom.Pt(12, 0), 0, &recorder{})
	c := m.AddNode(3, geom.Pt(-12, 0), 0, &recorder{})
	m.AddNode(2, geom.Pt(0, 0), 0, rx)

	// Two equal-power frames collide immediately; the indication (scheduled
	// after the preamble) must not fire for the corrupted lock.
	_ = a.Transmit(frame.Frame{Kind: frame.Data, Src: 1, Dst: 2, PayloadBytes: 800},
		phy.RateDSSS1, 7*time.Millisecond)
	eng.After(10*time.Microsecond, func() {
		_ = c.Transmit(frame.Frame{Kind: frame.Data, Src: 3, Dst: 2, PayloadBytes: 800},
			phy.RateDSSS1, 7*time.Millisecond)
	})
	eng.Run()
	for _, r := range rx.frames {
		if r.f.Kind == frame.ComapHeader {
			t.Errorf("indication emitted from corrupted reception: %+v", r.f)
		}
	}
}

// framePowerDBm puts one short frame from a on the air, reads its received
// power at b (-Inf when b cannot hear it) and lets the frame end.
func framePowerDBm(t *testing.T, eng *sim.Engine, a, b *Transceiver) float64 {
	t.Helper()
	if err := a.Transmit(frame.Frame{Kind: frame.Data, Src: a.ID(), Dst: b.ID()}, phy.RateDSSS1, time.Microsecond); err != nil {
		t.Fatal(err)
	}
	p := math.Inf(-1)
	for _, e := range b.air {
		if e.tx.from == a {
			p = e.dBm
		}
	}
	eng.Run()
	return p
}

// TestStaticShadowFractionSplitsSigma pins the production split of the
// shadowing variance, 70% static and 30% per-frame fading, whose deviations
// add up to exactly σ, and checks that the fading share redraws every frame.
func TestStaticShadowFractionSplitsSigma(t *testing.T) {
	if got := staticScale * staticScale; math.Abs(got-0.7) > 1e-15 {
		t.Errorf("static variance share = %v, want 0.7", got)
	}
	if got := staticScale*staticScale + fadeScale*fadeScale; math.Abs(got-1) > 1e-15 {
		t.Errorf("static + fading variance shares = %v, want 1", got)
	}
	eng := sim.New(3)
	m := NewMedium(eng, radio.NewLogNormal2400(2.9, 4), -95)
	a := m.AddNode(1, geom.Pt(0, 0), 0, &recorder{})
	b := m.AddNode(2, geom.Pt(30, 0), 0, &recorder{})
	seen := make(map[float64]bool)
	for i := 0; i < 10; i++ {
		seen[framePowerDBm(t, eng, a, b)] = true
	}
	if len(seen) < 9 {
		t.Errorf("samples not varying: %d distinct of 10", len(seen))
	}
}

// TestStaticShadowFullyFrozen checks that a pair's static shadow is a
// property of the pair alone: the same in both directions (reciprocity),
// after the pair moves apart and back, and after other stations join.
func TestStaticShadowFullyFrozen(t *testing.T) {
	eng := sim.New(4)
	m := NewMedium(eng, radio.NewLogNormal2400(2.9, 4), -95)
	a := m.AddNode(1, geom.Pt(0, 0), 0, &recorder{})
	b := m.AddNode(2, geom.Pt(30, 0), 0, &recorder{})
	m.rebuildGeometry()
	static := func(s, r *Transceiver) float64 {
		k := searchEntry(s.nbs, r.ID())
		return s.nbs[k].baseDBm - m.model.MeanReceivedDBm(s.txPower, s.Position().DistanceTo(r.Position()))
	}
	first := static(a, b)
	if first == 0 {
		t.Fatal("no static shadow drawn")
	}
	if got := static(b, a); got != first {
		t.Errorf("asymmetric static shadowing: %v vs %v", got, first)
	}
	b.SetPosition(geom.Pt(300, 0))
	b.SetPosition(geom.Pt(30, 0))
	for i := 0; i < 5; i++ {
		m.AddNode(frame.NodeID(10+i), geom.Pt(float64(10*i), 5), 0, &recorder{})
	}
	m.rebuildGeometry()
	if got := static(a, b); got != first {
		t.Errorf("static shadow changed from %v to %v", first, got)
	}
}

// TestStaticShadowStatistics checks the composite per-frame deviation
// across pairs: mean 0 and spread σ (here 4 dB).
func TestStaticShadowStatistics(t *testing.T) {
	eng := sim.New(5)
	m := NewMedium(eng, radio.NewLogNormal2400(2.9, 4), -95)
	mean := m.model.MeanReceivedDBm(0, 30)
	const pairs = 400
	var nodes []*Transceiver
	for i := 0; i < pairs; i++ {
		nodes = append(nodes, m.AddNode(frame.NodeID(2*i+1), geom.Pt(0, 0), 0, nil),
			m.AddNode(frame.NodeID(2*i+2), geom.Pt(30, 0), 0, nil))
	}
	var sum, sum2 float64
	for i := 0; i < pairs; i++ {
		v := framePowerDBm(t, eng, nodes[2*i], nodes[2*i+1]) - mean
		sum += v
		sum2 += v * v
	}
	sampleMean := sum / pairs
	std := math.Sqrt(sum2/pairs - sampleMean*sampleMean)
	if math.Abs(sampleMean) > 0.5 {
		t.Errorf("shadow mean = %v, want ~0", sampleMean)
	}
	if math.Abs(std-4) > 0.5 {
		t.Errorf("shadow std = %v, want ~4", std)
	}
}

func TestSetTxPower(t *testing.T) {
	eng, m := newTestMedium(t, 1)
	a := m.AddNode(1, geom.Pt(0, 0), 0, &recorder{})
	b := m.AddNode(2, geom.Pt(10, 0), 10, &recorder{})
	c := m.AddNode(3, geom.Pt(10, 0), 0, &recorder{})
	low := framePowerDBm(t, eng, c, a)
	high := framePowerDBm(t, eng, b, a)
	if math.Abs((high-low)-10) > 1e-9 {
		t.Errorf("power change = %v, want +10 dB", high-low)
	}
}

func TestMediumAccessors(t *testing.T) {
	_, m := newTestMedium(t, 1)
	if m.NoiseFloorDBm() != -95 {
		t.Error("NoiseFloorDBm accessor")
	}
}
