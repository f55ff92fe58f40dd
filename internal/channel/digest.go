package channel

import (
	"repro/internal/audit"
	"repro/internal/frame"
)

// DigestState folds the medium's causal state into an audit deep digest:
// environment knobs, every transceiver's radio state (position, power,
// transmit/lock status, and its frame counter — the shadowing generator's
// cursor) in dense-index order, and in-flight transmissions in active order.
// Read-only; called at ledger deep-digest slices on the sim goroutine.
func (m *Medium) DigestState(h *audit.Hasher) {
	h.Float64(m.noise)
	h.Float64(m.extraPathLossDB)
	h.Int(len(m.nodes))
	for _, t := range m.nodes {
		h.Int(int(t.id))
		h.Float64(t.pos.X)
		h.Float64(t.pos.Y)
		h.Float64(t.txPower)
		h.Uint64(t.frames)
		h.Bool(t.sending != nil)
		if t.sending != nil {
			digestFrame(h, t.sending.f)
		}
		h.Bool(t.lock != nil)
		if t.lock != nil {
			digestFrame(h, t.lock.tx.f)
			h.Float64(t.lock.signalDBm)
			h.Bool(t.lock.corrupted)
		}
	}
	h.Int(len(m.active))
	for _, tx := range m.active {
		h.Int(int(tx.from.id))
		digestFrame(h, tx.f)
		h.Float64(tx.rate.BitsPerSec)
	}
}

// digestFrame folds every field of a frame.
func digestFrame(h *audit.Hasher, f frame.Frame) {
	h.Int(int(f.Kind))
	h.Int(int(f.Src))
	h.Int(int(f.Dst))
	h.Uint16(f.Seq)
	h.Int(f.PayloadBytes)
	h.Bool(f.Retry)
	h.Uint64(uint64(f.Bitmap))
	h.Float64(f.X)
	h.Float64(f.Y)
}
