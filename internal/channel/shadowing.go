package channel

import (
	"math"

	"repro/internal/frame"
)

// The medium's shadowing comes from one counter-based generator, after
// Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3" (SC'11): a
// draw is a keyed mixing function of (key, pair, counter) and no state
// advances between draws. The static shadow of a pair is the draw at counter
// 0 of the unordered pair; the fading of a transmitter's k-th frame toward a
// receiver is the draw at counter k of the directed pair. So a draw never
// depends on which other pairs exist, were pruned, or drew first, and any
// subset of receivers can draw in any order.

// golden is SplitMix64's stream increment, 2^64/φ.
const golden = 0x9e3779b97f4a7c15

// mix is SplitMix64's finalizer (Stafford's variant 13), a bijection on
// 64-bit words in which every input bit flips each output bit with
// probability ~1/2.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// pairStream returns the key of the directed pair (a, b)'s stream.
func (m *Medium) pairStream(a, b frame.NodeID) uint64 {
	return mix(m.key ^ uint64(a)<<16 ^ uint64(b))
}

// stream returns word ctr of the stream with the given key: output ctr of a
// SplitMix64 generator seeded with key.
func stream(key, ctr uint64) uint64 { return mix(key + ctr*golden) }

// unit maps a word to a uniform deviate in (0, 1): the top 52 bits plus a
// half, so that both ends stay exactly representable and neither rounds to
// 0 or 1.
func unit(h uint64) float64 { return (float64(h>>12) + 0.5) / (1 << 52) }

// normal maps a generator word to a standard normal deviate by the inverse
// normal CDF, so the deviate is a pure function of the word. Its largest
// magnitude, from the extreme words, is about 8.2.
func normal(h uint64) float64 { return math.Sqrt2 * math.Erfinv(2*unit(h)-1) }
