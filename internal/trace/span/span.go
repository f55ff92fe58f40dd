// Package span folds a frame-lifecycle event stream (package trace) into
// per-frame spans: one record per MAC service of a data frame, from enqueue
// through contention and transmission to its acked/dropped completion, with
// the phase boundaries that let an analyzer say where each frame's time
// went. Spans are keyed by (src, dst, seq, chain), where chain counts
// services of the same sequence number — selective-repeat retransmissions
// and sequence-space wrap both re-enter the MAC as fresh services.
//
// The builder is a pure fold over the event stream: it relies only on the
// trace's ordering guarantees (events are recorded in virtual-time order,
// and a node's PHY events precede its MAC decisions at the same timestamp),
// so it reconstructs identical spans from a live Sink or a JSONL file read
// back later.
package span

import (
	"sort"

	"repro/internal/frame"
	"repro/internal/trace"
)

// Span outcomes.
const (
	// OutcomeAcked: the service completed with a link-layer ACK.
	OutcomeAcked = "acked"
	// OutcomeDropped: the service completed without one (retry limit,
	// CO-MAP no-retransmit, queue overflow).
	OutcomeDropped = "dropped"
	// OutcomePending: the run ended mid-service.
	OutcomePending = "pending"
)

// Attempt is one transmission attempt within a span.
type Attempt struct {
	// AtUs is the virtual time of the MAC's transmit decision.
	AtUs int64 `json:"at_us"`
	// Rate is the PHY rate chosen for the attempt.
	Rate string `json:"rate,omitempty"`
	// AirUs is the frame's airtime (from the channel's txstart record).
	AirUs int64 `json:"air_us,omitempty"`
	// Retries is the retry count the attempt was made at (0 = first try).
	Retries int `json:"retries,omitempty"`
	// Concurrent marks an exposed-terminal transmission overlapping an
	// announced ongoing link.
	Concurrent bool `json:"concurrent,omitempty"`
}

// Span is one frame's MAC service lifecycle.
type Span struct {
	Src   frame.NodeID `json:"src"`
	Dst   frame.NodeID `json:"dst"`
	Seq   uint16       `json:"seq"`
	Chain int          `json:"chain"`
	// Payload is the application payload in bytes.
	Payload int `json:"payload,omitempty"`

	// Phase boundaries in virtual microseconds; -1 when the phase was not
	// observed (e.g. a trace that starts mid-run).
	EnqueuedUs  int64 `json:"enqueued_us"`
	FirstBoUs   int64 `json:"first_bo_us"`
	FirstTxUs   int64 `json:"first_tx_us"`
	DeliveredUs int64 `json:"delivered_us"`
	EndUs       int64 `json:"end_us"`

	// Outcome is one of the Outcome* constants; Reason qualifies it with the
	// MAC's completion reason ("ack", "retry_limit", "no_retransmit",
	// "queue_full", "broadcast").
	Outcome string `json:"outcome"`
	Reason  string `json:"reason,omitempty"`
	// Retries is the final retry count; Freezes counts backoff freezes;
	// Timeouts counts ACK/CTS timeouts during the service.
	Retries  int `json:"retries,omitempty"`
	Freezes  int `json:"freezes,omitempty"`
	Timeouts int `json:"timeouts,omitempty"`

	Attempts []Attempt `json:"attempts,omitempty"`

	// RxOK and RxCorrupt count receptions of this frame at its destination.
	RxOK      int `json:"rx_ok,omitempty"`
	RxCorrupt int `json:"rx_corrupt,omitempty"`
}

// QueuedUs is the time spent waiting in the transmit queue before the frame's
// first backoff draw (-1 when unobserved).
func (s *Span) QueuedUs() int64 { return phase(s.EnqueuedUs, s.FirstBoUs) }

// ContendUs is the time from the first backoff draw to the first transmission
// attempt (-1 when unobserved).
func (s *Span) ContendUs() int64 { return phase(s.FirstBoUs, s.FirstTxUs) }

// InFlightUs is the time from the first transmission attempt to service
// completion — airtime, ACK waits and any retries (-1 when unobserved).
func (s *Span) InFlightUs() int64 { return phase(s.FirstTxUs, s.EndUs) }

// TotalUs is the full service time, enqueue to completion (-1 when
// unobserved).
func (s *Span) TotalUs() int64 { return phase(s.EnqueuedUs, s.EndUs) }

// Delivered reports whether the destination decoded the frame at least once.
func (s *Span) Delivered() bool { return s.RxOK > 0 }

func phase(from, to int64) int64 {
	if from < 0 || to < 0 || to < from {
		return -1
	}
	return to - from
}

type key struct {
	src, dst frame.NodeID
	seq      uint16
}

// Builder folds trace events into spans. It implements trace.Sink, so it can
// be attached live to a run or fed a decoded JSONL stream.
//
// A MAC queue can hold several frames with the same identity at once — the
// selective-repeat ARQ pipelines a retransmission copy behind the original —
// so the builder keeps a FIFO of open spans per identity, mirroring the
// MAC's in-order service.
type Builder struct {
	spans  []*Span
	open   map[key][]int // FIFO of open span indices per frame identity
	chains map[key]int
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{
		open:   make(map[key][]int),
		chains: make(map[key]int),
	}
}

// Record implements trace.Sink.
func (b *Builder) Record(e trace.Event) { b.Add(e) }

// Add folds one event. Events must arrive in trace order; non-data and
// non-lifecycle events are ignored.
func (b *Builder) Add(e trace.Event) {
	if e.FrameKind != frame.Data.String() {
		return
	}
	k := key{src: e.Src, dst: e.Dst, seq: e.SeqNo()}

	// Receptions are observed at the destination; everything else at the
	// transmitter.
	if e.Kind == trace.KindRx {
		if e.Node != e.Dst {
			return
		}
		s := b.current(k)
		if s == nil {
			return
		}
		if e.Decoded() {
			s.RxOK++
			if s.DeliveredUs < 0 {
				s.DeliveredUs = e.AtMicros
			}
		} else {
			s.RxCorrupt++
		}
		return
	}
	if e.Node != e.Src {
		return
	}

	switch e.Kind {
	case trace.KindEnqueue:
		b.openSpan(k, e)
	case trace.KindDrop:
		if e.Reason == "queue_full" {
			// Rejected before entering the queue: a zero-length span.
			s := b.openSpan(k, e)
			b.closeSpan(k, s, OutcomeDropped, e)
			return
		}
		if s := b.lookup(k); s != nil {
			b.closeSpan(k, s, OutcomeDropped, e)
		}
	case trace.KindAck:
		if s := b.lookup(k); s != nil {
			b.closeSpan(k, s, OutcomeAcked, e)
		}
	case trace.KindBackoffStart:
		if s := b.lookup(k); s != nil && s.FirstBoUs < 0 {
			s.FirstBoUs = e.AtMicros
		}
	case trace.KindBackoffFreeze:
		if s := b.lookup(k); s != nil {
			s.Freezes++
		}
	case trace.KindTxAttempt:
		if s := b.lookup(k); s != nil {
			if s.FirstTxUs < 0 {
				s.FirstTxUs = e.AtMicros
			}
			s.Retries = e.Retries
			s.Attempts = append(s.Attempts, Attempt{
				AtUs:       e.AtMicros,
				Rate:       e.Rate,
				Retries:    e.Retries,
				Concurrent: e.Concurrent,
			})
		}
	case trace.KindTxStart:
		if s := b.lookup(k); s != nil && len(s.Attempts) > 0 {
			s.Attempts[len(s.Attempts)-1].AirUs = e.DurUs
		}
	case trace.KindTimeout:
		if s := b.lookup(k); s != nil {
			s.Timeouts++
		}
	}
}

// openSpan starts a new span for k behind any already-open spans with the
// same identity.
func (b *Builder) openSpan(k key, e trace.Event) *Span {
	s := &Span{
		Src: e.Src, Dst: e.Dst, Seq: e.SeqNo(),
		Chain:      b.chains[k],
		Payload:    e.Payload,
		Outcome:    OutcomePending,
		EnqueuedUs: e.AtMicros,
		FirstBoUs:  -1,
		FirstTxUs:  -1, DeliveredUs: -1, EndUs: -1,
	}
	b.chains[k]++
	b.spans = append(b.spans, s)
	b.open[k] = append(b.open[k], len(b.spans)-1)
	return s
}

// closeSpan completes the oldest open span for k (MAC service is in-order).
func (b *Builder) closeSpan(k key, s *Span, outcome string, e trace.Event) {
	s.Outcome = outcome
	s.Reason = e.Reason
	if e.Retries > s.Retries {
		s.Retries = e.Retries
	}
	s.EndUs = e.AtMicros
	q := b.open[k]
	for i, idx := range q {
		if b.spans[idx] == s {
			q = append(q[:i], q[i+1:]...)
			break
		}
	}
	if len(q) == 0 {
		delete(b.open, k)
	} else {
		b.open[k] = q
	}
}

// lookup returns the oldest open span for k — the one the MAC is serving —
// nil when none.
func (b *Builder) lookup(k key) *Span {
	if q := b.open[k]; len(q) > 0 {
		return b.spans[q[0]]
	}
	return nil
}

// current returns the open span for k, falling back to the most recent
// completed one (a late reception can trail the sender's completion event).
func (b *Builder) current(k key) *Span {
	if s := b.lookup(k); s != nil {
		return s
	}
	for i := len(b.spans) - 1; i >= 0; i-- {
		s := b.spans[i]
		if s.Src == k.src && s.Dst == k.dst && s.Seq == k.seq {
			return s
		}
	}
	return nil
}

// Spans returns all spans in enqueue order. Spans still open (run ended
// mid-service) keep OutcomePending.
func (b *Builder) Spans() []*Span {
	out := make([]*Span, len(b.spans))
	copy(out, b.spans)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].EnqueuedUs < out[j].EnqueuedUs
	})
	return out
}

// FromEvents folds a complete event slice into spans.
func FromEvents(events []trace.Event) []*Span {
	b := NewBuilder()
	for _, e := range events {
		b.Add(e)
	}
	return b.Spans()
}
