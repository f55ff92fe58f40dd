// Package rpcspan stitches the control-plane RPC event stream (package
// trace's rpc.* kinds) into per-request spans: one record per control-plane
// request, from the client's first issue through retries, backoff and
// breaker refusals to its served/shed/lost completion, joined with the
// server-side rpc.srv events that carry the same request ID.
//
// The stitcher is a pure fold over the event stream. Client and server
// events join by (req, attempt) — not by time — so a span stitches
// correctly whether both streams share one trace file (an in-sim remote
// run, where the client emitter and the service emitter write to the same
// sink) or live in separate files (a comap-mapd deployment, where the
// server stream is written by -trace and merged here).
//
// Every client attempt lands in exactly one span and carries an explicit
// attribution: it either joined its server-side counterpart, or it names
// why no counterpart exists — the transport refused inline (server down),
// the request was lost or partitioned in flight (deadline fired with no
// server event), or the trace simply has no server stream to join against.
package rpcspan

import (
	"sort"
	"strings"

	"repro/internal/trace"
)

// Attempt outcomes, mirroring the client's rpc.done/rpc.timeout reasons.
const (
	// OutcomeOK: the attempt completed with a response.
	OutcomeOK = "ok"
	// OutcomeUnavailable: the transport answered ErrUnavailable inline
	// (service crashed/down); no server event exists for the attempt.
	OutcomeUnavailable = "unavailable"
	// OutcomeDeadline: the client deadline fired before any response.
	OutcomeDeadline = "deadline"
	// OutcomeError: the attempt failed with some other transport error.
	OutcomeError = "error"
	// OutcomePending: the trace ended with the attempt still in flight.
	OutcomePending = "pending"
)

// Attempt attributions: how the attempt relates to the server-side stream.
const (
	// AttrJoined: the server observed the attempt (rpc.srv events joined).
	AttrJoined = "joined"
	// AttrLost: the deadline fired and the server never saw the attempt —
	// the request (or its response) was lost or partitioned in flight.
	AttrLost = "lost_or_partitioned"
	// AttrServerDown: the transport refused inline; no server event is
	// expected (the service was crashed at issue time).
	AttrServerDown = "server_down"
	// AttrError: the attempt failed client-side with a non-timeout error.
	AttrError = "error"
	// AttrUnobserved: the trace carries no server stream at all, so joining
	// is impossible (client-only trace; supply the -trace file from
	// comap-mapd to upgrade these).
	AttrUnobserved = "unobserved"
	// AttrPending: the attempt had not completed when the trace ended.
	AttrPending = "pending"
)

// Span outcomes.
const (
	// SpanServed: some attempt completed with a response.
	SpanServed = "served"
	// SpanShed: the server admitted the request to its shed path.
	SpanShed = "shed"
	// SpanLost: every attempt that ran timed out without a server join.
	SpanLost = "lost"
	// SpanFailed: the request failed without being served or lost-in-flight
	// (inline unavailability, transport errors, retry/budget exhaustion).
	SpanFailed = "failed"
	// SpanPending: the trace ended with the request still in flight.
	SpanPending = "pending"
)

// ServerEvent is one rpc.srv record: what the service did, stamped with the
// request context it did it under.
type ServerEvent struct {
	AtUs    int64  `json:"at_us"`
	Reason  string `json:"reason"`
	Op      string `json:"op,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Count   int    `json:"count,omitempty"`
	Epoch   uint64 `json:"epoch,omitempty"`
}

// Attempt is one wire attempt within a span.
type Attempt struct {
	// Seq is the 1-based attempt number (matches the X-Comap-Attempt header
	// and the rpc.call event's attempt field).
	Seq     int   `json:"seq"`
	StartUs int64 `json:"start_us"`
	// EndUs is the completion time; -1 while pending.
	EndUs int64 `json:"end_us"`
	// DurUs is the client-observed latency (0 while pending).
	DurUs int64 `json:"dur_us,omitempty"`
	// Outcome is one of the Outcome* constants.
	Outcome string `json:"outcome"`
	// Attribution is one of the Attr* constants.
	Attribution string `json:"attribution"`
	// BackoffUs is the retry backoff scheduled after this attempt failed
	// (0 when no retry followed).
	BackoffUs int64 `json:"backoff_us,omitempty"`
	// Server holds the joined rpc.srv events for this attempt.
	Server []ServerEvent `json:"server,omitempty"`
}

// Drop is one rpc.drop record: the client gave up (or refused to start) a
// wire attempt, with the machinery that refused it.
type Drop struct {
	AtUs int64 `json:"at_us"`
	// Reason is breaker_open, budget_exhausted, retries_exhausted or busy.
	Reason string `json:"reason"`
	Op     string `json:"op,omitempty"`
}

// Span is one control-plane request's full client-side lifecycle, joined
// with its server-side observations.
type Span struct {
	Req uint64 `json:"req"`
	// Op is the request operation (verdict, ingest, invalidate_node,
	// invalidate_all).
	Op      string `json:"op"`
	StartUs int64  `json:"start_us"`
	// EndUs is the last attempt completion or drop; -1 while in flight.
	EndUs    int64     `json:"end_us"`
	Attempts []Attempt `json:"attempts"`
	// Drops are the client's give-up records for this request (a retry the
	// breaker or token budget refused, or the retry limit).
	Drops []Drop `json:"drops,omitempty"`
	// Outcome is one of the Span* constants.
	Outcome string `json:"outcome"`
	// Decision and Provenance join the MAC-level co.grant/co.deny/
	// co.fallback event that this request decided: Decision is grant, deny
	// or fallback; Provenance is the rung that served it (cached,
	// validated, stale, coarse, unhealthy_fix, control_plane_down). Empty
	// for ingest/invalidate spans, which carry no MAC decision.
	Decision   string `json:"decision,omitempty"`
	Provenance string `json:"provenance,omitempty"`

	// synthetic marks a span reconstructed purely from server events (no
	// client stream in the trace).
	synthetic bool
}

// Shed reports whether the server shed this request's admission.
func (s *Span) Shed() bool {
	for _, a := range s.Attempts {
		for _, se := range a.Server {
			if se.Reason == "shed" {
				return true
			}
		}
	}
	return false
}

// BreakerWindow is one circuit-breaker open window: from the transition
// into open until the transition back to closed (through half-open).
type BreakerWindow struct {
	OpenUs int64 `json:"open_us"`
	// CloseUs is -1 while still open at trace end.
	CloseUs int64 `json:"close_us"`
	// Reopens counts half-open probes that failed back to open within the
	// window.
	Reopens int `json:"reopens,omitempty"`
	// Drops counts rpc.drop breaker_open refusals inside the window.
	Drops int `json:"drops,omitempty"`
}

// LadderTransition is one co.ladder event with its causal request: Req
// names the request whose degraded service forced the transition (0 when
// the transition was not tied to a specific request).
type LadderTransition struct {
	AtUs     int64  `json:"at_us"`
	From, To string `json:"-"`
	Change   string `json:"change"`
	Req      uint64 `json:"req,omitempty"`
}

// Result is the stitched view of one trace (or several merged traces).
type Result struct {
	// Spans holds every request span, ordered by first issue.
	Spans []*Span `json:"spans"`
	// Unattached holds client drops that carry no request ID (the breaker
	// refused before an attempt was ever issued).
	Unattached []Drop `json:"unattached,omitempty"`
	// Service holds request-less rpc.srv lifecycle events: crashes, WAL
	// replays, epoch bumps and operator-initiated invalidations.
	Service []ServerEvent `json:"service,omitempty"`
	// Breakers holds the circuit-breaker open windows, in order.
	Breakers []BreakerWindow `json:"breakers,omitempty"`
	// Ladder holds the degradation-ladder transitions with their causal
	// request IDs.
	Ladder []LadderTransition `json:"ladder,omitempty"`
	// HasServer reports whether the trace carried any rpc.srv events; when
	// false, unjoined attempts are attributed AttrUnobserved, not AttrLost.
	HasServer bool `json:"has_server"`

	byReq map[uint64]*Span
}

// Span returns the span for a request ID, nil when absent.
func (r *Result) Span(req uint64) *Span { return r.byReq[req] }

// builder folds events into the result.
type builder struct {
	res         Result
	server      []trace.Event // buffered rpc.srv with Req != 0
	breakerOpen int           // index+1 into res.Breakers of the open window, 0 if none
}

// FromEvents stitches one decoded event stream. Call with the concatenation
// of client and server traces when they were written separately — joining
// is by request ID, so relative file order does not matter.
func FromEvents(events []trace.Event) *Result {
	b := &builder{}
	b.res.byReq = make(map[uint64]*Span)
	for _, e := range events {
		b.add(e)
	}
	b.finish()
	return &b.res
}

func (b *builder) add(e trace.Event) {
	switch e.Kind {
	case trace.KindRPCCall:
		s := b.span(e.Req, e.Op, e.AtMicros)
		s.Attempts = append(s.Attempts, Attempt{
			Seq:     e.Attempt,
			StartUs: e.AtMicros,
			EndUs:   -1,
			Outcome: OutcomePending,
		})
	case trace.KindRPCDone:
		if a := b.openAttempt(e.Req); a != nil {
			a.EndUs = e.AtMicros
			a.DurUs = e.DurUs
			if e.Reason == "ok" {
				a.Outcome = OutcomeOK
			} else {
				a.Outcome = e.Reason
			}
		}
	case trace.KindRPCTimeout:
		if a := b.openAttempt(e.Req); a != nil {
			a.EndUs = e.AtMicros
			a.DurUs = e.DurUs
			a.Outcome = OutcomeDeadline
		}
	case trace.KindRPCRetry:
		// The retry event names the upcoming attempt; the backoff belongs
		// to the attempt that just failed.
		if s := b.res.byReq[e.Req]; s != nil && len(s.Attempts) > 0 {
			s.Attempts[len(s.Attempts)-1].BackoffUs = e.DurUs
		}
	case trace.KindRPCDrop:
		d := Drop{AtUs: e.AtMicros, Reason: e.Reason, Op: e.Op}
		if e.Req == 0 {
			b.res.Unattached = append(b.res.Unattached, d)
		} else if s := b.res.byReq[e.Req]; s != nil {
			s.Drops = append(s.Drops, d)
		} else {
			b.res.Unattached = append(b.res.Unattached, d)
		}
		if b.breakerOpen > 0 && e.Reason == "breaker_open" {
			b.res.Breakers[b.breakerOpen-1].Drops++
		}
	case trace.KindRPCBreaker:
		b.breaker(e)
	case trace.KindRPCServer:
		b.res.HasServer = true
		if e.Req == 0 {
			b.res.Service = append(b.res.Service, serverEvent(e))
			return
		}
		b.server = append(b.server, e)
	case trace.KindCoLadder:
		from, to, _ := strings.Cut(e.Reason, "->")
		b.res.Ladder = append(b.res.Ladder, LadderTransition{
			AtUs: e.AtMicros, From: from, To: to, Change: e.Reason, Req: e.Req,
		})
	case trace.KindCoGrant, trace.KindCoDeny, trace.KindCoFallback:
		if e.Req == 0 {
			return
		}
		if s := b.res.byReq[e.Req]; s != nil {
			switch e.Kind {
			case trace.KindCoGrant:
				s.Decision = "grant"
			case trace.KindCoDeny:
				s.Decision = "deny"
			default:
				s.Decision = "fallback"
			}
			s.Provenance = e.Reason
		}
	}
}

func (b *builder) span(req uint64, op string, atUs int64) *Span {
	if s := b.res.byReq[req]; s != nil {
		if s.Op == "" {
			s.Op = op
		}
		return s
	}
	s := &Span{Req: req, Op: op, StartUs: atUs, EndUs: -1}
	b.res.byReq[req] = s
	b.res.Spans = append(b.res.Spans, s)
	return s
}

// openAttempt returns the request's most recent still-pending attempt.
func (b *builder) openAttempt(req uint64) *Attempt {
	s := b.res.byReq[req]
	if s == nil || len(s.Attempts) == 0 {
		return nil
	}
	a := &s.Attempts[len(s.Attempts)-1]
	if a.EndUs >= 0 {
		return nil
	}
	return a
}

// breaker folds an rpc.breaker transition ("closed->open", ...) into the
// open-window list.
func (b *builder) breaker(e trace.Event) {
	_, to, ok := strings.Cut(e.Reason, "->")
	if !ok {
		return
	}
	switch to {
	case "open":
		if b.breakerOpen > 0 {
			// half-open probe failed back to open: same outage window.
			b.res.Breakers[b.breakerOpen-1].Reopens++
			return
		}
		b.res.Breakers = append(b.res.Breakers, BreakerWindow{OpenUs: e.AtMicros, CloseUs: -1})
		b.breakerOpen = len(b.res.Breakers)
	case "closed":
		if b.breakerOpen > 0 {
			b.res.Breakers[b.breakerOpen-1].CloseUs = e.AtMicros
			b.breakerOpen = 0
		}
	}
}

// finish joins the buffered server events into their attempts, stamps
// attempt attributions and resolves span outcomes and end times.
func (b *builder) finish() {
	// (req, attempt) -> server events, in trace order.
	joined := make(map[uint64]map[int][]ServerEvent, len(b.server))
	for _, e := range b.server {
		m := joined[e.Req]
		if m == nil {
			m = make(map[int][]ServerEvent)
			joined[e.Req] = m
		}
		m[e.Attempt] = append(m[e.Attempt], serverEvent(e))
	}
	// Server-only requests (a mapd -trace file analysed without the client
	// stream) still get a span: one synthetic attempt per observed attempt
	// number, so nothing the server admitted disappears from the report.
	for _, e := range b.server {
		s := b.res.byReq[e.Req]
		if s == nil {
			s = b.span(e.Req, e.Op, e.AtMicros)
			s.synthetic = true
		}
		if !s.synthetic {
			continue
		}
		seen := false
		for _, a := range s.Attempts {
			if a.Seq == e.Attempt {
				seen = true
				break
			}
		}
		if !seen {
			s.Attempts = append(s.Attempts, Attempt{
				Seq: e.Attempt, StartUs: e.AtMicros, EndUs: e.AtMicros,
				Outcome: OutcomeOK,
			})
		}
	}
	for _, s := range b.res.Spans {
		for i := range s.Attempts {
			a := &s.Attempts[i]
			a.Server = joined[s.Req][a.Seq]
			a.Attribution = attribution(a, b.res.HasServer)
		}
		s.Outcome, s.EndUs = outcome(s)
	}
	sort.SliceStable(b.res.Spans, func(i, j int) bool {
		return b.res.Spans[i].StartUs < b.res.Spans[j].StartUs
	})
}

func attribution(a *Attempt, hasServer bool) string {
	if len(a.Server) > 0 {
		return AttrJoined
	}
	switch a.Outcome {
	case OutcomePending:
		return AttrPending
	case OutcomeUnavailable:
		return AttrServerDown
	case OutcomeError:
		return AttrError
	}
	// ok or deadline with no server join: without a server stream there is
	// nothing to join against; with one, the request (or its response)
	// never reached the service — lost or partitioned in flight. An OK
	// completion can only lack a join on a client-only trace.
	if !hasServer {
		return AttrUnobserved
	}
	return AttrLost
}

// outcome resolves a span's outcome and end time from its attempts and
// drops.
func outcome(s *Span) (string, int64) {
	end := int64(-1)
	for _, a := range s.Attempts {
		if a.EndUs > end {
			end = a.EndUs
		}
	}
	for _, d := range s.Drops {
		if d.AtUs > end {
			end = d.AtUs
		}
	}
	if n := len(s.Attempts); n > 0 && s.Attempts[n-1].EndUs < 0 {
		return SpanPending, -1
	}
	for _, a := range s.Attempts {
		if a.Outcome == OutcomeOK {
			return SpanServed, end
		}
	}
	if s.Shed() {
		return SpanShed, end
	}
	// Mixed failures prefer the loss attribution: any attempt that vanished
	// in flight makes the span's fate partition-shaped, whatever the other
	// attempts saw.
	for _, a := range s.Attempts {
		if a.Attribution == AttrLost || a.Attribution == AttrUnobserved {
			return SpanLost, end
		}
	}
	return SpanFailed, end
}

func serverEvent(e trace.Event) ServerEvent {
	return ServerEvent{
		AtUs:    e.AtMicros,
		Reason:  e.Reason,
		Op:      e.Op,
		Attempt: e.Attempt,
		Count:   e.Count,
		Epoch:   e.Epoch,
	}
}
