// Package audit is the simulator's determinism ledger: an engine dispatch
// observer that folds the causal state of a run into per-time-slice digests,
// attributed per subsystem via the sim.Tag plane, plus periodic deep digests
// of protocol state (channel pair-state, MAC per-station state, CO-MAP
// co-occurrence maps, named RNG stream cursors). The ledger is written as a
// compact JSONL stream headed by a run manifest, so two runs of the same
// scenario can be compared slice by slice and a divergence localized to the
// first slice — and, with event capture enabled, to the first divergent
// event — instead of collapsing into "the final report differs".
//
// The ledger is always compiled and off by default: an unaudited run pays
// nothing (the engine's observer stays nil), and an audited run is purely
// observational — it reads protocol state but never mutates it, schedules
// nothing and draws from no RNG stream, so audited runs stay bit-identical
// to unaudited ones (asserted by the golden-ledger suite).
package audit

import "math"

// FNV-1a 64-bit parameters. The rolling chains and deep digests all use the
// same primitive so a digest is reproducible from the ledger spec alone.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// foldByte advances an FNV-1a chain by one byte.
func foldByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime
}

// foldUint64 advances an FNV-1a chain by the 8 little-endian bytes of v.
// It is the hot-path fold behind the per-tag chains: three calls per event,
// no allocation.
func foldUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = foldByte(h, byte(v))
		v >>= 8
	}
	return h
}

// Hasher is an incremental FNV-1a 64 digest with typed fold helpers, handed
// to subsystem DigestState methods. The zero value is NOT ready; use
// NewHasher (it seeds the offset basis).
type Hasher struct {
	h uint64
}

// NewHasher returns a hasher seeded with the FNV-1a offset basis.
func NewHasher() *Hasher { return &Hasher{h: fnvOffset} }

// Sum returns the current digest.
func (h *Hasher) Sum() uint64 { return h.h }

// Reset rewinds the hasher to the offset basis.
func (h *Hasher) Reset() { h.h = fnvOffset }

// Uint64 folds the 8 little-endian bytes of v.
func (h *Hasher) Uint64(v uint64) { h.h = foldUint64(h.h, v) }

// Int64 folds v as its two's-complement bit pattern.
func (h *Hasher) Int64(v int64) { h.Uint64(uint64(v)) }

// Int folds v as an int64.
func (h *Hasher) Int(v int) { h.Int64(int64(v)) }

// Uint16 folds v widened to uint64.
func (h *Hasher) Uint16(v uint16) { h.Uint64(uint64(v)) }

// Bool folds one byte: 1 for true, 0 for false.
func (h *Hasher) Bool(v bool) {
	if v {
		h.h = foldByte(h.h, 1)
	} else {
		h.h = foldByte(h.h, 0)
	}
}

// Float64 folds the IEEE-754 bit pattern of v. Identical runs produce
// identical bit patterns (the simulator never manufactures NaNs with
// differing payloads), so no normalization is applied.
func (h *Hasher) Float64(v float64) { h.Uint64(math.Float64bits(v)) }

// String folds the length and bytes of s, so ("ab","c") and ("a","bc")
// digest differently.
func (h *Hasher) String(s string) {
	h.Int(len(s))
	for i := 0; i < len(s); i++ {
		h.h = foldByte(h.h, s[i])
	}
}
