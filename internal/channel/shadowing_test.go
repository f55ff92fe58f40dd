package channel

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/radio"
)

// TestNormalDeviates checks the word-to-deviate map against the standard
// normal CDF: the Kolmogorov–Smirnov distance of 2^18 consecutive stream
// words stays under its 99.9% critical value, and the extreme words map to
// finite deviates.
func TestNormalDeviates(t *testing.T) {
	const n = 1 << 18
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = normal(stream(0x5eed, uint64(i)))
	}
	sort.Float64s(xs)
	d := 0.0
	for i, x := range xs {
		p := radio.Phi(x)
		d = max(d, math.Abs(p-float64(i)/n), math.Abs(p-float64(i+1)/n))
	}
	if crit := 1.95 / math.Sqrt(n); d > crit {
		t.Errorf("KS distance %.5f > %.5f", d, crit)
	}
	for _, h := range []uint64{0, math.MaxUint64} {
		if z := normal(h); math.IsInf(z, 0) || math.IsNaN(z) || math.Abs(z) < 8 {
			t.Errorf("normal(%#x) = %v, want a finite deviate beyond ±8", h, z)
		}
	}
}

// BenchmarkShadowDraw times one keyed fading draw against one draw from a
// math/rand stream, the source it replaced.
func BenchmarkShadowDraw(b *testing.B) {
	b.Run("keyed", func(b *testing.B) {
		sink := 0.0
		for i := 0; i < b.N; i++ {
			sink += normal(stream(0x5eed, uint64(i)))
		}
		if math.IsNaN(sink) {
			b.Fatal("NaN")
		}
	})
	b.Run("NormFloat64", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		sink := 0.0
		for i := 0; i < b.N; i++ {
			sink += rng.NormFloat64()
		}
		if math.IsNaN(sink) {
			b.Fatal("NaN")
		}
	})
}
