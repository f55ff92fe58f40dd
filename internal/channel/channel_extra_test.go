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

func TestCaptureDisabled(t *testing.T) {
	eng, m := newTestMedium(t, 1)
	m.CaptureMarginDB = -1 // disable capture entirely
	rx := &recorder{}
	far := m.AddNode(1, geom.Pt(40, 0), 0, &recorder{})
	near := m.AddNode(3, geom.Pt(5, 0), 0, &recorder{})
	m.AddNode(2, geom.Pt(0, 0), 0, rx)

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
		t.Errorf("no-capture delivered %+v", rx.frames[0])
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

func TestStaticShadowFractionZeroMatchesPureFading(t *testing.T) {
	eng := sim.New(3)
	m := NewMedium(eng, radio.NewLogNormal2400(2.9, 4), -95)
	m.StaticShadowFraction = 0
	a := m.AddNode(1, geom.Pt(0, 0), 0, &recorder{})
	b := m.AddNode(2, geom.Pt(30, 0), 0, &recorder{})
	// With no static component, repeated samples vary frame to frame.
	seen := make(map[float64]bool)
	for i := 0; i < 10; i++ {
		seen[m.ReceivedPowerSampleDBm(a, b)] = true
	}
	if len(seen) < 9 {
		t.Errorf("samples not varying: %d distinct of 10", len(seen))
	}
}

func TestStaticShadowFullyFrozen(t *testing.T) {
	eng := sim.New(4)
	m := NewMedium(eng, radio.NewLogNormal2400(2.9, 4), -95)
	m.StaticShadowFraction = 1
	a := m.AddNode(1, geom.Pt(0, 0), 0, &recorder{})
	b := m.AddNode(2, geom.Pt(30, 0), 0, &recorder{})
	first := m.ReceivedPowerSampleDBm(a, b)
	for i := 0; i < 5; i++ {
		if got := m.ReceivedPowerSampleDBm(a, b); got != first {
			t.Fatalf("fully static shadowing varied: %v vs %v", got, first)
		}
	}
	// Reciprocity: the static component is symmetric, and with f=1 the whole
	// sample is.
	if got := m.ReceivedPowerSampleDBm(b, a); got != first {
		t.Errorf("asymmetric static shadowing: %v vs %v", got, first)
	}
}

func TestStaticShadowStatistics(t *testing.T) {
	// Whatever the split, the composite per-frame deviation must equal the
	// model's sigma (here 4 dB) across pairs.
	eng := sim.New(5)
	m := NewMedium(eng, radio.NewLogNormal2400(2.9, 4), -95)
	mean := m.model.MeanReceivedDBm(0, 30)
	var sum, sum2 float64
	const pairs = 400
	for i := 0; i < pairs; i++ {
		a := m.AddNode(frame.NodeID(2*i+1), geom.Pt(0, 0), 0, nil)
		b := m.AddNode(frame.NodeID(2*i+2), geom.Pt(30, 0), 0, nil)
		v := m.ReceivedPowerSampleDBm(a, b) - mean
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
	_, m := newTestMedium(t, 1)
	a := m.AddNode(1, geom.Pt(0, 0), 0, &recorder{})
	b := m.AddNode(2, geom.Pt(10, 0), 10, &recorder{})
	c := m.AddNode(3, geom.Pt(10, 0), 0, &recorder{})
	low := m.ReceivedPowerSampleDBm(c, a)
	high := m.ReceivedPowerSampleDBm(b, a)
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
