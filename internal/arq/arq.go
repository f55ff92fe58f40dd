// Package arq implements the selective-repeat ARQ scheme CO-MAP uses to
// survive ACK losses caused by asynchronously ending exposed-terminal
// transmissions (paper §IV-C4):
//
//   - the sender transmits up to WSend frames with consecutive sequence
//     numbers; a missing ACK does not trigger an immediate retransmission —
//     the sender moves on to the next frame in the window and resends the
//     holes afterwards;
//   - the receiver acknowledges every data frame with the received sequence
//     number plus a bitmap of the 32 preceding sequence numbers, so one
//     surviving ACK repairs the sender's view of many earlier losses.
//
// The package is pure protocol state; timers and radio access are driven by
// the MAC layer that owns it.
package arq

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// DefaultWindow is the default send window size.
const DefaultWindow = 8

// DefaultMaxAttempts bounds transmissions per frame before it is dropped.
const DefaultMaxAttempts = 16

// seqBefore reports whether a precedes b in modular uint16 sequence space.
func seqBefore(a, b uint16) bool { return int16(a-b) < 0 }

type entry struct {
	seq      uint16
	payload  int
	attempts int
	// firstAt is the virtual time the sequence number was minted; zero
	// unless the sender is instrumented.
	firstAt time.Duration
}

// Sender is the transmit side of the selective-repeat protocol.
type Sender struct {
	window      int
	maxAttempts int
	next        uint16
	// inflight holds the unacked frames, oldest first, by value and
	// shifted in place, so a steady window never reallocates it.
	inflight  []entry
	dropped   int
	delivered int

	// Telemetry (nil unless Instrument was called; all recording nil-safe).
	now      func() time.Duration
	mOcc     *metrics.Dist
	mDeliver *metrics.Timing
	mRetx    *metrics.Timing
	mDropped *metrics.Counter
}

// NewSender creates a sender with the given window size and per-frame
// attempt bound. Non-positive arguments select the defaults.
func NewSender(window, maxAttempts int) *Sender {
	if window <= 0 {
		window = DefaultWindow
	}
	if window > 32 {
		// The ACK bitmap covers 32 sequence numbers; a larger window could
		// not be repaired by a single ACK.
		window = 32
	}
	if maxAttempts <= 0 {
		maxAttempts = DefaultMaxAttempts
	}
	return &Sender{window: window, maxAttempts: maxAttempts}
}

// Instrument attaches telemetry to the sender: the "arq.window_occupancy"
// distribution (in-flight frames sampled at every send decision), the
// "arq.delivery_latency" mint→ACK timing, its "arq.retx_latency" subset for
// frames that needed more than one attempt, and the "arq.dropped" counter.
// now supplies the virtual clock (typically sim.Engine.Now). The package
// stays timer-free: the clock is only read, never scheduled on.
func (s *Sender) Instrument(reg *metrics.Registry, now func() time.Duration) {
	s.now = now
	s.mOcc = reg.Dist("arq.window_occupancy")
	s.mDeliver = reg.Timing("arq.delivery_latency")
	s.mRetx = reg.Timing("arq.retx_latency")
	s.mDropped = reg.Counter("arq.dropped")
}

// Next returns the next frame to transmit. When mint is set and the window
// has room it mints a new sequence number carrying newPayload bytes.
// Otherwise it returns the oldest unacknowledged frame as a retransmission
// (retry=true), rotating the window so successive calls cycle through the
// holes rather than hammering one frame. Frames exceeding the attempt bound
// are dropped and skipped. ok is false when there is nothing to send.
func (s *Sender) Next(newPayload int, mint bool) (seq uint16, payload int, retry, ok bool) {
	s.dropHopeless()
	if mint && len(s.inflight) < s.window {
		e := entry{seq: s.next, payload: newPayload, attempts: 1}
		if s.now != nil {
			e.firstAt = s.now()
		}
		s.next++
		s.inflight = append(s.inflight, e)
		s.mOcc.Observe(float64(len(s.inflight)))
		return e.seq, newPayload, false, true
	}
	if len(s.inflight) == 0 {
		return 0, 0, false, false
	}
	e := s.inflight[0]
	e.attempts++
	copy(s.inflight, s.inflight[1:])
	s.inflight[len(s.inflight)-1] = e
	s.mOcc.Observe(float64(len(s.inflight)))
	return e.seq, e.payload, true, true
}

// dropHopeless abandons frames that exhausted their attempt budget.
func (s *Sender) dropHopeless() {
	for len(s.inflight) > 0 && s.inflight[0].attempts >= s.maxAttempts {
		s.inflight = s.inflight[:copy(s.inflight, s.inflight[1:])]
		s.dropped++
		s.mDropped.Inc()
	}
}

// OnAck processes an acknowledgement: ackSeq itself plus every bitmap bit i
// acknowledging sequence number ackSeq-1-i. It returns the number of frames
// newly confirmed and their total payload bytes.
func (s *Sender) OnAck(ackSeq uint16, bitmap uint32) (frames, payloadBytes int) {
	acked := func(seq uint16) bool {
		if seq == ackSeq {
			return true
		}
		diff := uint16(ackSeq - 1 - seq)
		return diff < 32 && bitmap&(1<<diff) != 0
	}
	kept := s.inflight[:0]
	for _, e := range s.inflight {
		if acked(e.seq) {
			frames++
			payloadBytes += e.payload
			s.delivered++
			if s.now != nil {
				lat := s.now() - e.firstAt
				s.mDeliver.Observe(lat)
				if e.attempts > 1 {
					s.mRetx.Observe(lat)
				}
			}
			continue
		}
		kept = append(kept, e)
	}
	s.inflight = kept
	return frames, payloadBytes
}

// Receiver is the receive side: it deduplicates frames and produces
// bitmap ACKs.
type Receiver struct {
	started bool
	highest uint16
	// seen is a ring of horizon bits, one per sequence number s within the
	// horizon (uint16(highest-s) < horizon), at bit s mod horizon.
	seen [horizon / 64]uint64
}

// horizon is how far behind the highest sequence number the receiver
// remembers individual frames; anything older is treated as a duplicate.
const horizon = 256

// NewReceiver creates an empty receiver.
func NewReceiver() *Receiver {
	return &Receiver{}
}

// OnData records reception of seq and reports whether the frame is new
// (first delivery) as opposed to a duplicate retransmission.
func (r *Receiver) OnData(seq uint16) (isNew bool) {
	if !r.started {
		r.started = true
		r.highest = seq
		r.mark(seq)
		return true
	}
	if seqBefore(r.highest, seq) {
		r.advance(seq)
	} else if uint16(r.highest-seq) >= horizon {
		// Too old to track: assume we have seen it.
		return false
	}
	if r.has(seq) {
		return false
	}
	r.mark(seq)
	return true
}

// advance moves the highest sequence number forward to seq, forgetting the
// numbers that fall out of the horizon: those are exactly the ones whose
// ring bits the numbers highest+1..seq now take over.
func (r *Receiver) advance(seq uint16) {
	if uint16(seq-r.highest) >= horizon {
		r.seen = [horizon / 64]uint64{}
	} else {
		for s := r.highest + 1; s != seq+1; s++ {
			r.seen[s%horizon/64] &^= 1 << (s % 64)
		}
	}
	r.highest = seq
}

func (r *Receiver) mark(s uint16) { r.seen[s%horizon/64] |= 1 << (s % 64) }

// has reports whether s was received; numbers outside the horizon never
// were, as far as the receiver remembers.
func (r *Receiver) has(s uint16) bool {
	return uint16(r.highest-s) < horizon && r.seen[s%horizon/64]&(1<<(s%64)) != 0
}

// AckFor returns an acknowledgement anchored at the just-received sequence
// number seq (plus the bitmap of the 32 numbers preceding it). Anchoring at
// the received frame — not the highest — lets a retransmitted hole that has
// fallen more than 32 numbers behind still be acknowledged directly.
func (r *Receiver) AckFor(seq uint16) (ackSeq uint16, bitmap uint32) {
	return seq, r.bitmapBefore(seq)
}

func (r *Receiver) bitmapBefore(seq uint16) uint32 {
	var bitmap uint32
	for i := uint16(0); i < 32; i++ {
		if r.has(seq - 1 - i) {
			bitmap |= 1 << i
		}
	}
	return bitmap
}

// String summarises sender state for traces.
func (s *Sender) String() string {
	return fmt.Sprintf("arq.Sender{next=%d inflight=%d acked=%d dropped=%d}",
		s.next, len(s.inflight), s.delivered, s.dropped)
}
