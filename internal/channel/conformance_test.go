package channel

// Model conformance: the paper's reception model (eqs. 1–3), measured
// through the real Transmit path and the listener indications alone. The
// checks are statistical, so they hold for any correct draw of the random
// streams and fail on a wrong model: each statistic is measured on
// independent replications (disjoint seeds), and its target must lie inside
// the replications' confidence interval, which must itself be tight enough
// to tell the model from the defects it guards against.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
)

// confReplications is the number of independent replications per statistic,
// and confT the two-sided 99.9% Student-t quantile for its R−1 = 9 degrees of
// freedom: a correct model misses a check with probability 1e-3 per seed
// block, and the seeds are fixed.
const (
	confReplications = 10
	confT            = 4.781
)

// conformanceSigmaDB and staticShare are the model under test: the paper's
// testbed shadowing deviation and the production split of its variance
// between the frozen per-pair component and per-frame fading.
const (
	conformanceSigmaDB = 4.0
	staticShare        = 0.7
)

// checkReplicated asserts that target lies within the confT confidence
// interval of the per-replication values, and that the interval's half-width
// is at most resolution — a wider one could not tell a defect from noise.
func checkReplicated(t *testing.T, name string, vals []float64, target, resolution float64) {
	t.Helper()
	n := float64(len(vals))
	mean := 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= n
	ss := 0.0
	for _, v := range vals {
		ss += (v - mean) * (v - mean)
	}
	half := confT * math.Sqrt(ss/(n-1)/n)
	t.Logf("%s: %.4f ± %.4f (target %.4f)", name, mean, half, target)
	if !(half <= resolution) {
		t.Errorf("%s: confidence half-width %.4f exceeds the check's resolution %.4f", name, half, resolution)
	}
	if !(math.Abs(mean-target) <= half) {
		t.Errorf("%s = %.4f ± %.4f, want %.4f", name, mean, half, target)
	}
}

// powerProbe records the received power of every frame a node hears, read
// from the energy indication at the frame's start while it is alone on the
// air (an isolated frame's aggregate energy is its own received power).
type powerProbe struct{ dBm []float64 }

func (p *powerProbe) EnergyChanged(agg float64) {
	if !math.IsInf(agg, -1) {
		p.dBm = append(p.dBm, agg)
	}
}
func (p *powerProbe) FrameReceived(frame.Frame, bool, float64) {}
func (p *powerProbe) TransmitDone(frame.Frame)                 {}

// starSamples builds one replication's star: a hub at the origin and k
// receivers on a 30 m circle. The hub sends f isolated frames, then every
// receiver sends f frames back. fwd[i][j] and rev[i][j] are the shadowing
// deviations (received power minus MeanReceivedDBm) of frame j on the pair
// hub→receiver i and receiver i→hub.
func starSamples(t *testing.T, seed int64, k, f int) (fwd, rev [][]float64) {
	t.Helper()
	const dist, txDBm = 30.0, 20.0
	eng := sim.New(seed)
	m := NewMedium(eng, radio.NewLogNormal2400(2.9, conformanceSigmaDB), -95)
	hubProbe := &powerProbe{}
	hub := m.AddNode(1, geom.Pt(0, 0), txDBm, hubProbe)
	probes := make([]*powerProbe, k)
	rxs := make([]*Transceiver, k)
	for i := range rxs {
		a := 2 * math.Pi * float64(i) / float64(k)
		probes[i] = &powerProbe{}
		rxs[i] = m.AddNode(frame.NodeID(i+2), geom.Pt(dist*math.Cos(a), dist*math.Sin(a)), txDBm, probes[i])
	}
	at := time.Duration(0)
	send := func(tr *Transceiver) {
		eng.Schedule(at, func() {
			if err := tr.Transmit(frame.Frame{Kind: frame.Data, Src: tr.ID(), Dst: 1}, phy.RateDSSS1, time.Millisecond); err != nil {
				t.Error(err)
			}
		})
		at += 2 * time.Millisecond
	}
	for j := 0; j < f; j++ {
		send(hub)
	}
	for _, r := range rxs {
		for j := 0; j < f; j++ {
			send(r)
		}
	}
	eng.Run()

	mean := m.model.MeanReceivedDBm(txDBm, dist)
	if len(hubProbe.dBm) != k*f {
		t.Fatalf("hub heard %d frames, want %d", len(hubProbe.dBm), k*f)
	}
	fwd, rev = make([][]float64, k), make([][]float64, k)
	for i, p := range probes {
		// A receiver hears the hub's f frames first; the frames of the other
		// receivers, whose distances differ, come later and are ignored.
		if len(p.dBm) < f {
			t.Fatalf("receiver %d heard %d frames, want at least %d", i, len(p.dBm), f)
		}
		fwd[i], rev[i] = make([]float64, f), make([]float64, f)
		for j := 0; j < f; j++ {
			fwd[i][j] = p.dBm[j] - mean
			rev[i][j] = hubProbe.dBm[i*f+j] - mean
		}
	}
	return fwd, rev
}

// rowMeans returns each pair's mean over its frames.
func rowMeans(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		for _, v := range row {
			out[i] += v
		}
		out[i] /= float64(len(row))
	}
	return out
}

// TestConformanceShadowing checks eq. 1 as the channel realises it: each
// frame's received power is MeanReceivedDBm plus a Gaussian deviation of
// spread σ, split into a frozen per-pair share (70% of the variance,
// reciprocal between the two directions of a pair) and per-frame fading
// (30%) that is uncorrelated from frame to frame and across pairs.
func TestConformanceShadowing(t *testing.T) {
	const k, f = 128, 32
	stats := map[string][]float64{}
	add := func(name string, v float64) { stats[name] = append(stats[name], v) }
	for r := 0; r < confReplications; r++ {
		fwd, rev := starSamples(t, int64(9100+r), k, f)
		means := rowMeans(fwd)
		var sum, sum2, within, lag, cross, crossA, crossB float64
		for i, row := range fwd {
			for j, v := range row {
				sum += v
				sum2 += v * v
				e := v - means[i]
				within += e * e
				if j+1 < f {
					lag += e * (row[j+1] - means[i])
				}
				if i+1 < k {
					e2 := fwd[i+1][j] - means[i+1]
					cross += e * e2
					crossA += e * e
					crossB += e2 * e2
				}
			}
		}
		n := float64(k * f)
		grand := sum / n
		add("mean deviation (dB)", grand)
		add("composite spread (dB)", math.Sqrt(sum2/n-grand*grand))

		// Fading variance: the pooled within-pair variance. Static variance:
		// the between-pair variance of the pair means, less the fading
		// variance the means still carry.
		fadeVar := within / float64(k*(f-1))
		var mm, mm2 float64
		for _, v := range means {
			mm += v
			mm2 += v * v
		}
		mm /= float64(k)
		staticVar := (mm2-float64(k)*mm*mm)/float64(k-1) - fadeVar/float64(f)
		add("static share of the variance", staticVar/(staticVar+fadeVar))

		// Lag-1 autocorrelation of the fading residuals. Removing each pair's
		// mean biases the estimator of an uncorrelated sequence to −1/f.
		add("fading lag-1 autocorrelation", lag/within)
		// Correlation of the same frame's fading at two receivers, and of
		// two pairs' static components.
		add("fading correlation across pairs", cross/math.Sqrt(crossA*crossB))
		var sc, sa, sb float64
		for i := 0; i+1 < k; i++ {
			a, b := means[i]-mm, means[i+1]-mm
			sc += a * b
			sa += a * a
			sb += b * b
		}
		add("static correlation across pairs", sc/math.Sqrt(sa*sb))

		// Reciprocity: the two directions of a pair share the static
		// component, so their means differ only by fading, whose variance
		// over f frames each way is 2·fadeVar/f.
		back := rowMeans(rev)
		var d2 float64
		for i := range means {
			d := means[i] - back[i]
			d2 += d * d
		}
		add("reciprocal mean gap / fading share", d2/float64(k)/(2*fadeVar/float64(f)))
	}
	checkReplicated(t, "mean deviation (dB)", stats["mean deviation (dB)"], 0, 0.75)
	checkReplicated(t, "composite spread (dB)", stats["composite spread (dB)"], conformanceSigmaDB, 0.5)
	checkReplicated(t, "static share of the variance", stats["static share of the variance"], staticShare, 0.1)
	checkReplicated(t, "fading lag-1 autocorrelation", stats["fading lag-1 autocorrelation"], -1.0/f, 0.05)
	checkReplicated(t, "fading correlation across pairs", stats["fading correlation across pairs"], 0, 0.05)
	checkReplicated(t, "static correlation across pairs", stats["static correlation across pairs"], 0, 0.25)
	checkReplicated(t, "reciprocal mean gap / fading share", stats["reciprocal mean gap / fading share"], 1, 0.4)
}

// TestConformancePRR checks eqs. 2–3: a receiver locked onto a sender d
// metres away while one equal-power interferer r metres away joins decodes
// the frame with the probability radio.PRR gives, the ensemble over
// independent topology instances (each with its own static shadows) of the
// per-frame SIR test. The powers sit far above the noise floor and every
// rate's sensitivity, so the SIR threshold alone decides, as eq. 3 assumes.
func TestConformancePRR(t *testing.T) {
	const cells, frames = 200, 20
	const txDBm = 20.0
	model := radio.NewLogNormal2400(2.9, conformanceSigmaDB)
	rate := phy.RateDSSS1
	for _, pt := range []struct{ d, r float64 }{{15, 40}, {20, 30}, {20, 20}, {30, 20}} {
		var vals []float64
		for rep := 0; rep < confReplications; rep++ {
			delivered := 0
			for c := 0; c < cells; c++ {
				eng := sim.New(int64(50_000 + 1000*rep + c))
				m := NewMedium(eng, model, -95)
				rx := &recorder{}
				m.AddNode(1, geom.Pt(0, 0), txDBm, rx)
				s := m.AddNode(2, geom.Pt(pt.d, 0), txDBm, &recorder{})
				in := m.AddNode(3, geom.Pt(-pt.r, 0), txDBm, &recorder{})
				for j := 0; j < frames; j++ {
					at := time.Duration(j) * 5 * time.Millisecond
					eng.Schedule(at, func() {
						_ = s.Transmit(frame.Frame{Kind: frame.Data, Src: 2, Dst: 1}, rate, 2*time.Millisecond)
					})
					eng.Schedule(at+10*time.Microsecond, func() {
						_ = in.Transmit(frame.Frame{Kind: frame.Data, Src: 3, Dst: 9}, rate, time.Millisecond)
					})
				}
				eng.Run()
				for _, got := range rx.frames {
					if got.f.Src == 2 && got.ok {
						delivered++
					}
				}
			}
			vals = append(vals, float64(delivered)/(cells*frames))
		}
		want := model.PRR(rate.MinSIRdB, pt.d, pt.r)
		checkReplicated(t, fmt.Sprintf("PRR at d=%g m, r=%g m", pt.d, pt.r), vals, want, 0.07)
	}
}
