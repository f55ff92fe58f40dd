package rate

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/phy"
)

// currentBest is the rate Minstrel would pick for dst without probing.
func currentBest(m *Minstrel, dst frame.NodeID) phy.Rate {
	return m.rates[m.bestIndex(m.state(dst))]
}

func TestFixed(t *testing.T) {
	c := Fixed{Rate: phy.RateOFDM6}
	if got := c.RateFor(1); got != phy.RateOFDM6 {
		t.Errorf("RateFor = %v", got)
	}
	c.Feedback(1, phy.RateOFDM6, false) // must not panic or change anything
	if got := c.RateFor(1); got != phy.RateOFDM6 {
		t.Errorf("RateFor after feedback = %v", got)
	}
}

func bgRates() []phy.Rate {
	return []phy.Rate{phy.RateDSSS1, phy.RateDSSS11, phy.RateOFDM24, phy.RateOFDM54}
}

func TestMinstrelPanicsOnEmptyRates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewMinstrel(nil, rand.New(rand.NewSource(1)))
}

func TestMinstrelStartsOptimistic(t *testing.T) {
	m := NewMinstrel(bgRates(), rand.New(rand.NewSource(1)))
	// With all probabilities at 1, the best expected throughput is the
	// fastest rate.
	if got := currentBest(m, 5); got != phy.RateOFDM54 {
		t.Errorf("initial best = %v, want 54M", got)
	}
}

func TestMinstrelConvergesDownOnFailure(t *testing.T) {
	m := NewMinstrel(bgRates(), rand.New(rand.NewSource(1)))
	const dst = frame.NodeID(7)
	// The link only sustains 11M: every faster rate fails, slower succeed.
	for i := 0; i < 400; i++ {
		r := m.RateFor(dst)
		ok := r.BitsPerSec <= 11e6
		m.Feedback(dst, r, ok)
	}
	if got := currentBest(m, dst); got != phy.RateDSSS11 {
		t.Errorf("converged best = %v, want 11M", got)
	}
}

func TestMinstrelRecoversWhenLinkImproves(t *testing.T) {
	m := NewMinstrel(bgRates(), rand.New(rand.NewSource(2)))
	const dst = frame.NodeID(3)
	for i := 0; i < 300; i++ {
		r := m.RateFor(dst)
		m.Feedback(dst, r, r.BitsPerSec <= 1e6)
	}
	if got := currentBest(m, dst); got != phy.RateDSSS1 {
		t.Fatalf("should be at 1M, got %v", got)
	}
	// Link improves: everything succeeds. Probing must rediscover 54M.
	for i := 0; i < 2000; i++ {
		r := m.RateFor(dst)
		m.Feedback(dst, r, true)
	}
	if got := currentBest(m, dst); got != phy.RateOFDM54 {
		t.Errorf("after recovery best = %v, want 54M", got)
	}
}

func TestMinstrelProbesOtherRates(t *testing.T) {
	m := NewMinstrel(bgRates(), rand.New(rand.NewSource(3)))
	const dst = frame.NodeID(1)
	seen := make(map[string]bool)
	for i := 0; i < 200; i++ {
		r := m.RateFor(dst)
		seen[r.Name] = true
		m.Feedback(dst, r, true)
	}
	if len(seen) < 2 {
		t.Errorf("expected probing to try multiple rates, saw %v", seen)
	}
}

func TestMinstrelPerDestinationIsolation(t *testing.T) {
	m := NewMinstrel(bgRates(), rand.New(rand.NewSource(4)))
	// Destination 1 has a terrible link; destination 2 is perfect.
	for i := 0; i < 300; i++ {
		r := m.RateFor(1)
		m.Feedback(1, r, r.BitsPerSec <= 1e6)
		r2 := m.RateFor(2)
		m.Feedback(2, r2, true)
	}
	if got := currentBest(m, 1); got != phy.RateDSSS1 {
		t.Errorf("dst1 best = %v, want 1M", got)
	}
	if got := currentBest(m, 2); got != phy.RateOFDM54 {
		t.Errorf("dst2 best = %v, want 54M", got)
	}
}

func TestMinstrelFeedbackForUnknownRateIgnored(t *testing.T) {
	m := NewMinstrel(bgRates(), rand.New(rand.NewSource(5)))
	m.Feedback(1, phy.Rate{Name: "weird", BitsPerSec: 3e6}, false)
	if got := currentBest(m, 1); got != phy.RateOFDM54 {
		t.Errorf("unknown-rate feedback changed state: %v", got)
	}
}

func TestMinstrelCopiesRateSlice(t *testing.T) {
	rates := bgRates()
	m := NewMinstrel(rates, rand.New(rand.NewSource(6)))
	rates[3] = phy.RateDSSS1
	if got := currentBest(m, 1); got != phy.RateOFDM54 {
		t.Errorf("controller aliased caller slice: %v", got)
	}
}

func TestMinstrelSingleRateNeverProbes(t *testing.T) {
	m := NewMinstrel([]phy.Rate{phy.RateOFDM6}, rand.New(rand.NewSource(7)))
	for i := 0; i < 100; i++ {
		if got := m.RateFor(9); got != phy.RateOFDM6 {
			t.Fatalf("single-rate controller returned %v", got)
		}
	}
}

func TestMinstrelAirtimeAwareMetric(t *testing.T) {
	// With a frame-time estimator whose fixed overhead dominates, a lossy
	// fast rate loses to a reliable slower one — unlike the raw
	// prob×bitrate metric.
	p := phy.DSSS()
	m := NewMinstrel(bgRates(), rand.New(rand.NewSource(9)))
	m.SetFrameTime(func(r phy.Rate) time.Duration {
		return 800*time.Microsecond + p.DataFrameAirtime(r, 1000)
	})
	const dst = frame.NodeID(4)
	// 54M succeeds 55% of the time; 11M always succeeds.
	for i := 0; i < 600; i++ {
		r := m.RateFor(dst)
		ok := true
		if r.BitsPerSec > 11e6 {
			ok = i%9 < 5
		}
		m.Feedback(dst, r, ok)
	}
	best := currentBest(m, dst)
	if best.BitsPerSec > 24e6 {
		t.Errorf("airtime-aware metric picked %v despite heavy losses", best)
	}
}

func TestMinstrelFrameTimeZeroGuard(t *testing.T) {
	m := NewMinstrel(bgRates(), rand.New(rand.NewSource(10)))
	m.SetFrameTime(func(phy.Rate) time.Duration { return 0 })
	// Degenerate estimator must not panic or divide by zero.
	if got := m.RateFor(1); got.IsZero() {
		t.Errorf("RateFor returned zero rate")
	}
}
