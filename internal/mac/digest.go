package mac

import (
	"time"

	"repro/internal/audit"
	"repro/internal/sim"
)

// DigestState folds the station's MAC state machine into an audit deep
// digest: the transmit queue, backoff/contention state, carrier-sense view
// and every pending timer. Read-only; called at ledger deep-digest slices
// on the sim goroutine.
func (m *MAC) DigestState(h *audit.Hasher) {
	h.Int(len(m.queue))
	for i, f := range m.queue {
		h.Int(int(f.Kind))
		h.Int(int(f.Src))
		h.Int(int(f.Dst))
		h.Uint16(f.Seq)
		h.Int(f.PayloadBytes)
		h.Bool(f.Retry)
		h.Int64(int64(m.queuedAt[i]))
	}
	h.Int(m.retries)
	h.Int(m.cw)
	h.Int(m.counter)
	h.Int(int(m.st))
	h.Float64(m.curRate.BitsPerSec)
	h.Bool(m.busy)
	h.Float64(m.energyMW())
	h.Bool(m.eifs)
	h.Bool(m.navActive)
	h.Bool(m.ackPending)
	h.Bool(m.concurrent)
	h.Bool(m.concPending)
	h.Bool(m.persistent)
	h.Int(int(m.concSrc))
	h.Int(int(m.concDst))
	h.Float64(m.rssi1MW)
	digestTimer(h, m.navEv)
	digestTimer(h, m.difsEv)
	digestTimer(h, m.slotEv)
	digestTimer(h, m.ackTimeoutEv)
	digestTimer(h, m.ctsTimeoutEv)
	digestTimer(h, m.concExpiryEv)
}

// digestTimer folds a timer handle's liveness and deadline.
func digestTimer(h *audit.Hasher, ev sim.Handle) {
	active := ev.Active()
	h.Bool(active)
	var at time.Duration
	if active {
		at = ev.At()
	}
	h.Int64(int64(at))
}
