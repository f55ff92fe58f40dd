package mac

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
)

// TestConformanceCarrierSenseMiss checks eq. 4 end to end: a two-node probe
// in which a bystander's MAC, handed a frame in the middle of a long
// transmission r metres away, goes ahead (misses the carrier) with the
// probability radio.ProbBelowCS gives for its CCA threshold. The rate is the
// ensemble over independent topology instances, each with its own static
// shadow, of the per-frame decision. Each statistic is measured on ten
// replications with disjoint seeds; the target must lie inside their 99.9%
// Student-t interval, and the interval must be tight enough to tell the
// model from a threshold shifted by a few dB.
func TestConformanceCarrierSenseMiss(t *testing.T) {
	const (
		reps, cells, frames = 10, 100, 20
		tT                  = 4.781 // two-sided 99.9% quantile, 9 degrees of freedom
		sigmaDB             = 4.0
		resolution          = 0.05
	)
	model := radio.NewLogNormal2400(2.9, sigmaDB)
	cfg := Config{PHY: phy.DSSS(), CCAThresholdDBm: -81, FixedCW: 1}
	for _, r := range []float64{15, 25, 40} {
		var vals []float64
		for rep := 0; rep < reps; rep++ {
			missed := 0
			for c := 0; c < cells; c++ {
				eng := sim.New(int64(70_000 + 1000*rep + c))
				m := channel.NewMedium(eng, model, -95)
				sender := m.AddNode(1, geom.Pt(0, 0), 0, nil)
				probe := New(eng, m.AddNode(2, geom.Pt(r, 0), 0, nil), cfg)
				probe.tr.SetListener(probe)
				var busyUntil time.Duration
				m.OnTransmitStart = func(from frame.NodeID, _ frame.Frame, _ phy.Rate, _ time.Duration) {
					if from == 2 && eng.Now() < busyUntil {
						missed++
					}
				}
				for j := 0; j < frames; j++ {
					at := time.Duration(j) * 50 * time.Millisecond
					eng.Schedule(at, func() {
						busyUntil = eng.Now() + 20*time.Millisecond
						_ = sender.Transmit(frame.Frame{Kind: frame.Data, Src: 1, Dst: 9, PayloadBytes: 100}, phy.RateDSSS1, 20*time.Millisecond)
					})
					eng.Schedule(at+2*time.Millisecond, func() {
						_ = probe.Enqueue(frame.Frame{Kind: frame.Data, Dst: frame.Broadcast, PayloadBytes: 100})
					})
				}
				eng.Run()
			}
			vals = append(vals, float64(missed)/(cells*frames))
		}
		mean, ss := 0.0, 0.0
		for _, v := range vals {
			mean += v
		}
		mean /= reps
		for _, v := range vals {
			ss += (v - mean) * (v - mean)
		}
		half := tT * math.Sqrt(ss/(reps-1)/reps)
		want := model.ProbBelowCS(cfg.CCAThresholdDBm, 0, r)
		name := fmt.Sprintf("carrier-sense miss rate at r=%g m", r)
		t.Logf("%s: %.4f ± %.4f (target %.4f)", name, mean, half, want)
		if half > resolution {
			t.Errorf("%s: confidence half-width %.4f exceeds the check's resolution %.4f", name, half, resolution)
		}
		if math.Abs(mean-want) > half {
			t.Errorf("%s = %.4f ± %.4f, want %.4f", name, mean, half, want)
		}
	}
}
