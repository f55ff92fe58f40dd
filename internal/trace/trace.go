// Package trace records the frame lifecycle of a simulated network as JSON
// Lines, one object per event — the equivalent of NS-2's wireless trace file
// or a pcap for this simulator, extended with the protocol decisions behind
// each frame. A Tracer wraps any channel.Listener for the PHY events; the
// MAC and the CO-MAP agent emit their decision events through an Emitter.
// Everything funnels into the same Sink, so one JSONL file carries the whole
// causal story of a run: why a station deferred, why a concurrent
// transmission was granted, why a retry storm started.
//
// Tracing is purely observational: sinks only read simulator state, no
// decision event feeds back into protocol behavior, and a nil Emitter
// records nothing at zero cost — traced runs are bit-identical to untraced
// ones.
//
// Event kinds:
//
//   - PHY (per observing node, via Tracer): "rx" (frame delivered to a
//     locked radio, ok or corrupted), "txdone" (own transmission left the
//     air), "energy" (aggregate in-band power changed; opt-in, voluminous).
//   - Channel: "txstart" (a transmission was put on the air, with its rate
//     and airtime — the other half of the "txdone" interval).
//   - MAC decisions: "mac.enqueue", "mac.bo_start" (fresh backoff draw),
//     "mac.bo_freeze" (countdown frozen by a busy/reserved medium),
//     "mac.tx" (data transmission attempt), "mac.ack" (frame service
//     completed acked), "mac.timeout" (ACK or CTS timeout), "mac.drop"
//     (frame service completed unacked, with the reason).
//   - Exposed-terminal decisions (MAC): "et.join" (backoff resumes through
//     the busy medium alongside an announced transmission), "et.abandon"
//     (the RSSI-step rule detected a second exposed terminal).
//   - CO-MAP agent decisions: "co.grant"/"co.deny" (concurrency validation
//     verdict for our destination against an ongoing link, cached or freshly
//     computed), "co.adapt" (hidden-terminal packet-size/CW adaptation
//     changed the transmission settings).
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/phy"
	"repro/internal/sim"
)

// Event kind names. The strings are the stable on-disk format; the analyzer
// in cmd/comap-trace matches on them.
const (
	KindRx     = "rx"
	KindTxDone = "txdone"
	KindEnergy = "energy"

	KindTxStart = "txstart"

	KindEnqueue       = "mac.enqueue"
	KindBackoffStart  = "mac.bo_start"
	KindBackoffFreeze = "mac.bo_freeze"
	KindTxAttempt     = "mac.tx"
	KindAck           = "mac.ack"
	KindTimeout       = "mac.timeout"
	KindDrop          = "mac.drop"

	KindETJoin    = "et.join"
	KindETAbandon = "et.abandon"

	KindCoGrant = "co.grant"
	KindCoDeny  = "co.deny"
	KindCoAdapt = "co.adapt"
	// KindCoFallback marks a health-gated decision: the agent refused to act
	// on degraded location input and fell back to plain DCF behavior.
	KindCoFallback = "co.fallback"

	// KindCoLadder marks a control-plane degradation-ladder transition
	// (Reason is "from->to" over fresh/stale/coarse/dcf), emitted by the
	// mapsvc client when the rung serving verdicts changes.
	KindCoLadder = "co.ladder"

	// Control-plane RPC events, client side (the mapsvc client). Every
	// issued call attempt is bracketed by KindRPCCall and exactly one of
	// KindRPCDone / KindRPCTimeout; KindRPCRetry records the backoff armed
	// before the next attempt of the same request; KindRPCDrop records a
	// refusal to issue or retry a call (Reason "breaker_open",
	// "budget_exhausted", "retries_exhausted", "busy"); KindRPCBreaker
	// records a circuit-breaker state change (Reason "from->to" over
	// closed/open/half-open). All carry Req (client-assigned request ID),
	// and call/done/timeout/retry carry Attempt (1-based).
	KindRPCCall    = "rpc.call"
	KindRPCDone    = "rpc.done"
	KindRPCTimeout = "rpc.timeout"
	KindRPCRetry   = "rpc.retry"
	KindRPCDrop    = "rpc.drop"
	KindRPCBreaker = "rpc.breaker"

	// KindRPCServer is the server-side control-plane event stream emitted
	// by mapsvc.Service: Reason is one of "admit", "shed", "hit", "miss",
	// "unhealthy", "invalidate", "invalidate_all", "epoch_bump",
	// "wal_replay", "crash"; Req/Attempt echo the caller's causal context
	// when the request carried one.
	KindRPCServer = "rpc.srv"

	// KindFault marks an injected fault window opening (Reason names the
	// fault process; DurUs carries the window length).
	KindFault = "fault"

	// KindRunEnd marks the scheduled end of the run, so analyzers can
	// normalise rates over the true duration instead of the last event.
	KindRunEnd = "run.end"
)

// Event is one trace record.
type Event struct {
	// AtMicros is the virtual time in microseconds.
	AtMicros int64 `json:"at_us"`
	// Node is the observing station.
	Node frame.NodeID `json:"node"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`

	// Frame fields. On PHY and MAC events they describe the frame itself;
	// on "et.*" and "co.*" events Src/Dst identify the ongoing (foreign)
	// link the decision was made against.
	FrameKind string       `json:"frame,omitempty"`
	Src       frame.NodeID `json:"src,omitempty"`
	Dst       frame.NodeID `json:"dst,omitempty"`
	// Seq is explicit (pointer, not omitempty-elided) so that seq-0 frames
	// keep their sequence number on the wire; it is nil on events that do
	// not concern a sequenced frame.
	Seq     *uint16 `json:"seq,omitempty"`
	Payload int     `json:"payload,omitempty"`
	Retry   bool    `json:"retry,omitempty"`

	// OK reports decode success for rx events. It is a pointer so a failed
	// decode ("ok":false) is distinguishable from a non-rx event (absent).
	OK *bool `json:"ok,omitempty"`
	// RSSIDBm is the received signal strength (rx) or aggregate energy
	// (energy events); explicit so a 0 dBm reading survives the round trip.
	RSSIDBm *float64 `json:"rssi_dbm,omitempty"`

	// Decision-event fields. All optional; which are set depends on Kind.

	// DurUs is a duration in microseconds: the airtime of a "txstart", or
	// the total service time (enqueue→completion) on "mac.ack"/"mac.drop".
	DurUs int64 `json:"dur_us,omitempty"`
	// Rate is the PHY rate name of a transmission ("txstart", "mac.tx").
	Rate string `json:"rate,omitempty"`
	// CW is the contention window ("mac.bo_start") or the adapted window
	// ("co.adapt").
	CW int `json:"cw,omitempty"`
	// Slots is the backoff counter: drawn on "mac.bo_start", remaining on
	// "mac.bo_freeze".
	Slots int `json:"slots,omitempty"`
	// Retries is the retransmission count of the frame in service.
	Retries int `json:"retries,omitempty"`
	// Queue is the transmit-queue depth after a "mac.enqueue".
	Queue int `json:"queue,omitempty"`
	// Reason qualifies the event: drop reasons ("retry_limit",
	// "queue_full", "no_retransmit"), timeout flavor ("ack", "cts"),
	// join trigger ("embedded", "energy_rise"), verdict provenance
	// ("cached", "validated"), completion without an ACK ("broadcast").
	Reason string `json:"reason,omitempty"`
	// OurDst is this node's own destination on "et.*"/"co.*" events, where
	// Src/Dst carry the foreign ongoing link.
	OurDst frame.NodeID `json:"our_dst,omitempty"`
	// Hidden and Contenders are the environment counts behind a "co.adapt".
	Hidden     int `json:"hidden,omitempty"`
	Contenders int `json:"contenders,omitempty"`
	// Concurrent marks a "mac.tx" that overlaps an ongoing transmission
	// (exposed-terminal concurrency).
	Concurrent bool `json:"concurrent,omitempty"`

	// Control-plane causal context ("rpc.*" events, and "co.*" events that
	// were decided by a control-plane round trip).

	// Req is the client-assigned control-plane request ID. IDs are
	// monotonic per client and never zero, so 0 (absent) means "no RPC was
	// issued for this decision".
	Req uint64 `json:"req,omitempty"`
	// Attempt is the 1-based attempt sequence within a request.
	Attempt int `json:"attempt,omitempty"`
	// Op names the control-plane operation ("verdict", "ingest",
	// "invalidate_node", "invalidate_all").
	Op string `json:"op,omitempty"`
	// Count carries a batch size: records admitted on an "admit", records
	// replayed on a "wal_replay", entries dropped on an "invalidate".
	Count int `json:"count,omitempty"`
	// Epoch is the service epoch on "rpc.srv" events.
	Epoch uint64 `json:"epoch,omitempty"`
}

// SeqNum returns a pointer to v, for building events.
func SeqNum(v uint16) *uint16 { return &v }

// Bool returns a pointer to v, for building events.
func Bool(v bool) *bool { return &v }

// Float returns a pointer to v, for building events.
func Float(v float64) *float64 { return &v }

// SeqNo returns the event's sequence number, 0 when absent.
func (e Event) SeqNo() uint16 {
	if e.Seq == nil {
		return 0
	}
	return *e.Seq
}

// Decoded reports whether an rx event decoded cleanly. Traces written
// before the explicit-OK encoding omitted "ok" on failed decodes, so an
// absent field correctly reads as false.
func (e Event) Decoded() bool { return e.OK != nil && *e.OK }

// RSSI returns the recorded signal strength and whether one was recorded.
func (e Event) RSSI() (float64, bool) {
	if e.RSSIDBm == nil {
		return 0, false
	}
	return *e.RSSIDBm, true
}

// FrameEvent builds an event of the given kind carrying f's identity.
func FrameEvent(kind string, f frame.Frame) Event {
	return Event{
		Kind:      kind,
		FrameKind: f.Kind.String(),
		Src:       f.Src,
		Dst:       f.Dst,
		Seq:       SeqNum(f.Seq),
		Payload:   f.PayloadBytes,
		Retry:     f.Retry,
	}
}

// Sink receives trace events. Implementations must be cheap; they run inside
// the simulation loop.
type Sink interface {
	Record(Event)
}

// Writer is a Sink that encodes events as JSON Lines.
type Writer struct {
	enc *json.Encoder
	n   int
	err error
}

// NewWriter wraps an io.Writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{enc: json.NewEncoder(w)}
}

// Record implements Sink.
func (w *Writer) Record(e Event) {
	if w.err != nil {
		return
	}
	w.err = w.enc.Encode(e)
	if w.err == nil {
		w.n++
	}
}

// Count returns the number of events written.
func (w *Writer) Count() int { return w.n }

// Err returns the first encoding error, if any.
func (w *Writer) Err() error { return w.err }

// Buffer is a Sink that collects events in memory (tests, analysis).
type Buffer struct {
	Events []Event
}

// Record implements Sink.
func (b *Buffer) Record(e Event) { b.Events = append(b.Events, e) }

// Emitter stamps decision events with the virtual time and the owning node
// and forwards them to a Sink. A nil *Emitter is valid and records nothing —
// protocol code calls Emit unconditionally and pays one nil check when
// tracing is detached.
type Emitter struct {
	eng  *sim.Engine
	node frame.NodeID
	sink Sink
}

// NewEmitter builds an emitter for one node. A nil sink yields a nil
// emitter (tracing off).
func NewEmitter(eng *sim.Engine, node frame.NodeID, sink Sink) *Emitter {
	if sink == nil {
		return nil
	}
	return &Emitter{eng: eng, node: node, sink: sink}
}

// Enabled reports whether events will actually be recorded. Use it to skip
// building expensive events; plain Emit calls are already nil-safe.
func (em *Emitter) Enabled() bool { return em != nil }

// Emit stamps e with the current virtual time and the emitter's node and
// records it.
func (em *Emitter) Emit(e Event) {
	if em == nil {
		return
	}
	e.AtMicros = int64(em.eng.Now() / time.Microsecond)
	e.Node = em.node
	em.sink.Record(e)
}

// Tracer wraps a channel.Listener and mirrors its indications into a Sink.
type Tracer struct {
	eng    *sim.Engine
	node   frame.NodeID
	inner  channel.Listener
	sink   Sink
	energy bool
}

var _ channel.Listener = (*Tracer)(nil)

// New wraps inner so that node's PHY events flow into sink. Set energy to
// also record every aggregate-power change (very verbose).
func New(eng *sim.Engine, node frame.NodeID, inner channel.Listener, sink Sink, energy bool) *Tracer {
	return &Tracer{eng: eng, node: node, inner: inner, sink: sink, energy: energy}
}

// InstrumentMedium interposes a PHY tracer on every node of a medium and
// hooks transmission starts into the sink as "txstart" events, so analyzers
// can reconstruct on-air intervals without guessing airtimes. Call after the
// MAC listeners are installed.
func InstrumentMedium(eng *sim.Engine, m *channel.Medium, sink Sink, energy bool) {
	m.OnTransmitStart = func(from frame.NodeID, f frame.Frame, r phy.Rate, airtime time.Duration) {
		e := FrameEvent(KindTxStart, f)
		e.AtMicros = int64(eng.Now() / time.Microsecond)
		e.Node = from
		e.Rate = r.Name
		e.DurUs = int64(airtime / time.Microsecond)
		sink.Record(e)
	}
	for _, tr := range m.Nodes() {
		tr.SetListener(New(eng, tr.ID(), tr.Listener(), sink, energy))
	}
}

// base converts a frame into the shared event fields.
func (t *Tracer) base(kind string, f frame.Frame) Event {
	e := FrameEvent(kind, f)
	e.AtMicros = int64(t.eng.Now() / time.Microsecond)
	e.Node = t.node
	return e
}

// EnergyChanged implements channel.Listener.
func (t *Tracer) EnergyChanged(agg float64) {
	if t.energy {
		t.sink.Record(Event{
			AtMicros: int64(t.eng.Now() / time.Microsecond),
			Node:     t.node,
			Kind:     KindEnergy,
			RSSIDBm:  Float(agg),
		})
	}
	if t.inner != nil {
		t.inner.EnergyChanged(agg)
	}
}

// FrameReceived implements channel.Listener.
func (t *Tracer) FrameReceived(f frame.Frame, ok bool, rssi float64) {
	e := t.base(KindRx, f)
	e.OK = Bool(ok)
	e.RSSIDBm = Float(rssi)
	t.sink.Record(e)
	if t.inner != nil {
		t.inner.FrameReceived(f, ok, rssi)
	}
}

// TransmitDone implements channel.Listener.
func (t *Tracer) TransmitDone(f frame.Frame) {
	t.sink.Record(t.base(KindTxDone, f))
	if t.inner != nil {
		t.inner.TransmitDone(f)
	}
}

// String summarises an event for logs.
func (e Event) String() string {
	switch e.Kind {
	case KindRx:
		rssi, _ := e.RSSI()
		return fmt.Sprintf("%dus node %d RX %s %d->%d seq=%d ok=%v rssi=%.1f",
			e.AtMicros, e.Node, e.FrameKind, e.Src, e.Dst, e.SeqNo(), e.Decoded(), rssi)
	case KindTxDone:
		return fmt.Sprintf("%dus node %d TXDONE %s %d->%d seq=%d",
			e.AtMicros, e.Node, e.FrameKind, e.Src, e.Dst, e.SeqNo())
	case KindTxStart:
		return fmt.Sprintf("%dus node %d TXSTART %s %d->%d seq=%d rate=%s dur=%dus",
			e.AtMicros, e.Node, e.FrameKind, e.Src, e.Dst, e.SeqNo(), e.Rate, e.DurUs)
	case KindEnergy:
		rssi, _ := e.RSSI()
		return fmt.Sprintf("%dus node %d %s %.1f dBm", e.AtMicros, e.Node, e.Kind, rssi)
	default:
		s := fmt.Sprintf("%dus node %d %s", e.AtMicros, e.Node, e.Kind)
		if e.FrameKind != "" {
			s += fmt.Sprintf(" %s %d->%d seq=%d", e.FrameKind, e.Src, e.Dst, e.SeqNo())
		} else if e.Src != 0 || e.Dst != 0 {
			s += fmt.Sprintf(" link %d->%d", e.Src, e.Dst)
		}
		if e.Reason != "" {
			s += " reason=" + e.Reason
		}
		return s
	}
}
