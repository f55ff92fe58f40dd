package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestOnlineBasics(t *testing.T) {
	var o Online
	if o.N() != 0 || o.Mean() != 0 || o.Variance() != 0 {
		t.Fatal("zero value should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(x)
	}
	if o.N() != 8 {
		t.Errorf("N = %d", o.N())
	}
	if got := o.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if got := o.Variance(); math.Abs(got-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if o.Min() != 2 || o.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", o.Min(), o.Max())
	}
}

func TestOnlineSingleSample(t *testing.T) {
	var o Online
	o.Add(3.5)
	if o.Mean() != 3.5 || o.Variance() != 0 || o.StdDev() != 0 {
		t.Errorf("single-sample stats wrong: %+v", o)
	}
	if o.Min() != 3.5 || o.Max() != 3.5 {
		t.Errorf("Min/Max = %v/%v", o.Min(), o.Max())
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.N() != 0 || e.Mean() != 0 || len(e.Points()) != 0 {
		t.Error("empty ECDF should report zeros")
	}
	if _, err := e.Quantile(0.5); err == nil {
		t.Error("Quantile on empty ECDF should error")
	}
}

func TestECDFQuantile(t *testing.T) {
	e := NewECDF([]float64{10, 20, 30, 40})
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 10},
		{0.25, 10},
		{0.5, 20},
		{0.75, 30},
		{1, 40},
	}
	for _, tt := range tests {
		got, err := e.Quantile(tt.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", tt.q, err)
		}
		if got != tt.want {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if _, err := e.Quantile(1.5); err == nil {
		t.Error("out-of-range quantile should error")
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		samples := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) {
				samples = append(samples, v)
			}
		}
		pts := NewECDF(samples).Points()
		for i, p := range pts {
			if p.F <= 0 || p.F > 1 {
				return false
			}
			if i > 0 && (p.X < pts[i-1].X || p.F <= pts[i-1].F) {
				return false
			}
		}
		return len(pts) == 0 || pts[len(pts)-1].F == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestECDFDoesNotAliasInput(t *testing.T) {
	in := []float64{3, 1, 2}
	e := NewECDF(in)
	in[0] = 100
	if pts := e.Points(); pts[0].X != 1 || pts[2].X != 3 {
		t.Errorf("ECDF must copy its input: %+v", pts)
	}
	if sort.Float64sAreSorted(in) {
		t.Error("input slice must not be sorted in place")
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{5, 1})
	pts := e.Points()
	if len(pts) != 2 {
		t.Fatalf("len = %d", len(pts))
	}
	if pts[0] != (CDFPoint{X: 1, F: 0.5}) || pts[1] != (CDFPoint{X: 5, F: 1}) {
		t.Errorf("Points = %+v", pts)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 9.999, 10, 42} {
		h.Add(x)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Errorf("Under/Over = %d/%d", h.Under, h.Over)
	}
	want := []int{2, 1, 0, 0, 1}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Errorf("bin %d = %d, want %d", i, c, want[i])
		}
	}
}

func TestHistogramRejectsNaN(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Add(math.NaN())
	h.Add(5)
	if h.NaN != 1 {
		t.Errorf("NaN = %d, want 1", h.NaN)
	}
	for i, c := range h.Counts {
		want := 0
		if i == 2 {
			want = 1
		}
		if c != want {
			t.Errorf("bin %d = %d after NaN, want %d", i, c, want)
		}
	}
	if h.Under != 0 || h.Over != 0 {
		t.Errorf("NaN leaked into Under/Over: %d/%d", h.Under, h.Over)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewHistogram(5, 5, 3)
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
}

func TestRelativeGain(t *testing.T) {
	if got := RelativeGain(10, 15); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("RelativeGain = %v, want 0.5", got)
	}
	if RelativeGain(0, 5) != 0 {
		t.Error("gain over zero baseline should be 0")
	}
	if got := RelativeGain(10, 5); math.Abs(got+0.5) > 1e-12 {
		t.Errorf("negative gain = %v, want -0.5", got)
	}
}

func TestGoodputMeter(t *testing.T) {
	var g GoodputMeter
	g.AddPayload(1000)
	g.AddPayload(500)
	if g.Bytes() != 1500 || g.Frames() != 2 {
		t.Errorf("Bytes/Frames = %d/%d", g.Bytes(), g.Frames())
	}
	if got := g.BitsPerSecond(time.Second); got != 12000 {
		t.Errorf("BitsPerSecond = %v, want 12000", got)
	}
	if g.BitsPerSecond(0) != 0 || g.BitsPerSecond(-time.Second) != 0 {
		t.Error("non-positive elapsed must yield 0")
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Inc("collisions")
	c.Inc("collisions")
	for i := 0; i < 5; i++ {
		c.Inc("retries")
	}
	if c.Get("collisions") != 2 || c.Get("retries") != 5 || c.Get("missing") != 0 {
		t.Errorf("counter values wrong: %v", c.Snapshot())
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "collisions" || names[1] != "retries" {
		t.Errorf("Names = %v", names)
	}
	snap := c.Snapshot()
	snap["collisions"] = 99
	if c.Get("collisions") != 2 {
		t.Error("Snapshot must be a copy")
	}
}
