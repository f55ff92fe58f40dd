package mapsvc

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comap"
	"repro/internal/frame"
	"repro/internal/loc"
	"repro/internal/slo"
	"repro/internal/trace"
)

// Rung is a degradation-ladder position.
type Rung int

// The ladder, healthiest first.
const (
	// RungFresh serves full verdicts: local map hits while the breaker is
	// closed, and synchronous round trips to the service.
	RungFresh Rung = iota
	// RungStale serves the client's cached conservative (widened-margin)
	// verdicts while they are younger than staleFor.
	RungStale
	// RungCoarse computes worst-case geometry over the local registry view
	// only — no rate economy, no service.
	RungCoarse
	// RungDCF is the floor: behave like plain DCF (deny concurrency).
	RungDCF
)

// String names the rung for status endpoints and trace reasons.
func (r Rung) String() string {
	switch r {
	case RungFresh:
		return "fresh"
	case RungStale:
		return "stale"
	case RungCoarse:
		return "coarse"
	default:
		return "dcf"
	}
}

// Breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

func breakerName(s int) string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	default:
		return "half-open"
	}
}

// The client's tuning. Deadlines are tight because the control plane is
// co-located; the retry budget is small and bounded, and the breaker trips
// well inside one fault window.
const (
	// callDeadline bounds each call attempt.
	callDeadline = 20 * time.Millisecond
	// maxRetries bounds retry attempts per decision (first attempt free).
	maxRetries = 3
	// Attempt k backs off retryBase<<(k-1), capped at retryMax and jittered
	// into [d/2, d] when ClientConfig.Jitter is set.
	retryBase = 10 * time.Millisecond
	retryMax  = 160 * time.Millisecond
	// retryBudgetPerSec refills the retry token bucket; retryBurst caps it.
	// First attempts are free — the budget only meters retries, so retry
	// storms cannot amplify an outage.
	retryBudgetPerSec = 10
	retryBurst        = 20
	// breakerFailures consecutive failures open the circuit breaker;
	// breakerCooldown later it half-opens and admits one probe.
	breakerFailures = 5
	breakerCooldown = 250 * time.Millisecond
	// staleFor bounds how old a cached verdict the stale rung may serve.
	staleFor = 3 * time.Second
)

// ClientConfig abstracts the client's clock and timer plane: the simulator
// passes the engine's virtual clock so deadlines, backoff and budget refill
// all run in sim-time. Now and After are required.
type ClientConfig struct {
	Now    func() time.Duration
	After  func(d time.Duration, fn func()) (cancel func())
	Jitter *rand.Rand
}

type entry struct {
	allowed bool
	wide    bool
	at      time.Duration
}

type call struct {
	key       Key
	attempt   int
	req       uint64 // client-assigned request ID, stable across retries
	start     time.Duration
	completed bool
	resp      *Response
	err       error
	cancel    func()
}

// fireCall tracks one fire-and-forget (ingest/invalidate) call.
type fireCall struct {
	req       uint64
	op        Op
	start     time.Duration
	completed bool
	cancel    func()
	onFail    func() // runs under the client mutex
}

// Client is the simulator-side control-plane client. It implements
// comap.RemoteVerdicts: every co-occurrence-map miss becomes a control-plane
// call wrapped in a deadline, bounded jittered retries metered by a token
// budget, and a circuit breaker; when a fresh verdict cannot be had it walks
// the degradation ladder (stale cache → coarse geometry → DCF). One client
// serves every agent — control-plane health is global.
//
// All state but the map-hit atomics is guarded by one mutex; the transport
// is always invoked with the mutex released, so inline completions (the
// zero-fault fast path) and status scrapes under load are both safe.
type Client struct {
	cfg       ClientConfig
	transport Transport
	judge     comap.Judge
	fixes     comap.FixFunc
	resyncFn  func() []IngestRecord
	tr        *trace.Emitter
	slo       *slo.Tracker
	run       string

	mu      sync.Mutex
	entries map[Key]entry
	pending map[Key]*call

	breaker   int
	probing   bool
	failures  int // consecutive, closed-state
	openUntil time.Duration

	tokensMilli int64
	lastRefill  time.Duration

	rung          Rung
	rungSince     time.Duration
	rungDecisions [4]int64
	transitions   int64
	// hitFast mirrors "breaker closed and rung fresh" (stored under mu),
	// where a map hit changes nothing but the fresh-rung count: such hits
	// skip the mutex and count into freshHits, which Status adds in.
	hitFast   atomic.Bool
	freshHits atomic.Int64

	nextReq      uint64
	breakerOpens int64

	lastEpoch    uint64
	needResync   bool
	resyncing    bool
	pendingInval map[frame.NodeID]bool

	calls           int64
	failuresTotal   int64
	timeouts        int64
	retries         int64
	budgetExhausted int64
	resyncs         int64
	ingestCalls     int64
}

var _ comap.RemoteVerdicts = (*Client)(nil)

// NewClient builds a client over the given transport.
func NewClient(transport Transport, cfg ClientConfig) *Client {
	c := &Client{
		cfg:          cfg,
		transport:    transport,
		entries:      make(map[Key]entry),
		pending:      make(map[Key]*call),
		pendingInval: make(map[frame.NodeID]bool),
		tokensMilli:  retryBurst * 1000,
		rung:         RungFresh,
		lastRefill:   cfg.Now(),
		rungSince:    cfg.Now(),
	}
	c.hitFast.Store(true)
	return c
}

// SetJudge installs the local verdict calculator for the coarse rung.
func (c *Client) SetJudge(j comap.Judge) { c.judge = j }

// SetFixes installs the local registry view for the coarse rung; nil skips
// the coarse rung entirely.
func (c *Client) SetFixes(f comap.FixFunc) { c.fixes = f }

// SetResync installs the full-state dump used to re-seed the service after
// a detected restart (records must be in deterministic order).
func (c *Client) SetResync(fn func() []IngestRecord) { c.resyncFn = fn }

// SetTrace attaches an emitter for ladder-transition ("co.ladder") and
// client-side RPC lifecycle ("rpc.*") events.
func (c *Client) SetTrace(em *trace.Emitter) { c.tr = em }

// SetSLO attaches a per-endpoint SLO tracker; every call attempt's outcome
// and latency is observed under its operation name. nil detaches.
func (c *Client) SetSLO(t *slo.Tracker) { c.slo = t }

// SetRun stamps the run fingerprint propagated in every call's causal
// context (the X-Comap-Run header over HTTP).
func (c *Client) SetRun(fp string) { c.run = fp }

// AdoptEpoch primes the client's view of the service epoch so the first
// successful call is not mistaken for a restart.
func (c *Client) AdoptEpoch(epoch uint64) {
	c.mu.Lock()
	c.lastEpoch = epoch
	c.mu.Unlock()
}

// Verdict implements comap.RemoteVerdicts: cachedAllowed and found are the
// agent's co-occurrence-map lookup for the decision. A hit on a closed
// breaker is served from it: lock-free while the ladder is on the fresh
// rung, under one lock when it must climb back. Everything else asks the
// control plane and, when that fails, degrades down the ladder.
func (c *Client) Verdict(observer frame.NodeID, ongoing comap.Link, myDst frame.NodeID, cachedAllowed, found bool) comap.RemoteVerdict {
	if found && c.hitFast.Load() {
		c.freshHits.Add(1)
		return comap.RemoteVerdict{Source: comap.RemoteCachedFresh, Allowed: cachedAllowed}
	}
	key := Key{Observer: observer, Ongoing: ongoing, MyDst: myDst}
	now := c.cfg.Now()

	c.mu.Lock()
	if c.breakerStateLocked(now) == breakerClosed && found {
		c.serveRungLocked(RungFresh, 0)
		c.mu.Unlock()
		return comap.RemoteVerdict{Source: comap.RemoteCachedFresh, Allowed: cachedAllowed}
	}
	var cl *call
	if _, busy := c.pending[key]; !busy {
		if c.allowCallLocked(now) {
			cl = c.newCallLocked(key, 0, 0)
		} else if c.tr.Enabled() {
			// The breaker refused to issue the call: no request ID is
			// assigned, the decision degrades immediately.
			c.tr.Emit(trace.Event{Kind: trace.KindRPCDrop, Op: OpName(OpVerdict), Reason: "breaker_open"})
		}
	}
	c.mu.Unlock()

	if cl != nil {
		c.send(cl)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	var req uint64
	if cl != nil {
		req = cl.req
	}
	if cl != nil && cl.completed && cl.err == nil {
		// Synchronous round trip: still the fresh rung.
		c.serveRungLocked(RungFresh, req)
		v := cl.resp.Verdict
		if v.Unhealthy {
			return comap.RemoteVerdict{Source: comap.RemoteValidated, Unhealthy: true, Req: req}
		}
		return comap.RemoteVerdict{Source: comap.RemoteValidated, Allowed: v.Allowed, Req: req}
	}
	// Degraded: the call is in flight, failed, or the breaker refused it.
	// A degraded tier may only JUSTIFY concurrency — a conservative deny is
	// served from the DCF floor, because denying concurrency is exactly what
	// plain DCF does (the rung reflects the behaviour actually delivered).
	if e, ok := c.entries[key]; ok && now-e.at <= staleFor {
		if e.wide {
			c.serveRungLocked(RungStale, req)
			return comap.RemoteVerdict{Source: comap.RemoteStale, Allowed: true, Req: req}
		}
		c.serveRungLocked(RungDCF, req)
		return comap.RemoteVerdict{Source: comap.RemoteUnavailable, Req: req}
	}
	if c.fixes != nil {
		if allowed, ok := c.judge.DecideWide(c.fixes, observer, ongoing, myDst, DefaultWidenMeters); ok && allowed {
			c.serveRungLocked(RungCoarse, req)
			return comap.RemoteVerdict{Source: comap.RemoteCoarse, Allowed: true, Req: req}
		}
	}
	c.serveRungLocked(RungDCF, req)
	return comap.RemoteVerdict{Source: comap.RemoteUnavailable, Req: req}
}

// serveRungLocked counts a decision served from the given rung and records
// the transition when the rung changed. req is the control-plane request
// that decided (or failed to decide) this verdict — a transition's event
// carries it so the analyzer can attribute the ladder drop to the specific
// request that caused it (0 when no RPC was issued).
func (c *Client) serveRungLocked(r Rung, req uint64) {
	c.rungDecisions[r]++
	if r != c.rung {
		if c.tr.Enabled() {
			c.tr.Emit(trace.Event{
				Kind:   trace.KindCoLadder,
				Reason: c.rung.String() + "->" + r.String(),
				Req:    req,
			})
		}
		c.rung = r
		c.rungSince = c.cfg.Now()
		c.transitions++
		c.publishHitFastLocked()
	}
}

func (c *Client) publishHitFastLocked() {
	c.hitFast.Store(c.breaker == breakerClosed && c.rung == RungFresh)
}

// newCallLocked opens a call attempt. req 0 assigns a fresh request ID
// (first attempt); retries pass the original request's ID through.
func (c *Client) newCallLocked(key Key, attempt int, req uint64) *call {
	if req == 0 {
		c.nextReq++
		req = c.nextReq
	}
	cl := &call{key: key, attempt: attempt, req: req, start: c.cfg.Now()}
	c.pending[key] = cl
	c.calls++
	if c.breaker == breakerHalfOpen {
		c.probing = true
	}
	if c.tr.Enabled() {
		c.tr.Emit(trace.Event{
			Kind: trace.KindRPCCall, Op: OpName(OpVerdict),
			Req: req, Attempt: attempt + 1,
		})
	}
	return cl
}

// send issues the call with the mutex released; done may run inline.
func (c *Client) send(cl *call) {
	req := &Request{
		Op:  OpVerdict,
		Key: cl.key,
		Ctx: CallContext{Run: c.run, Req: cl.req, Attempt: cl.attempt + 1},
	}
	completed := c.transport.Invoke(req, func(r *Response, err error) {
		c.onDone(cl, r, err)
	})
	if !completed {
		c.mu.Lock()
		if !cl.completed && c.pending[cl.key] == cl {
			cl.cancel = c.cfg.After(callDeadline, func() { c.onDeadline(cl) })
		}
		c.mu.Unlock()
	}
}

func (c *Client) onDone(cl *call, r *Response, err error) {
	doResync := false
	c.mu.Lock()
	if cl.completed || c.pending[cl.key] != cl {
		c.mu.Unlock()
		return // the deadline already ended this call
	}
	cl.completed = true
	cl.resp, cl.err = r, err
	if cl.cancel != nil {
		cl.cancel()
		cl.cancel = nil
	}
	delete(c.pending, cl.key)
	now := c.cfg.Now()
	c.observeLocked(OpVerdict, now-cl.start, err == nil)
	if err != nil {
		c.failuresTotal++
		if c.tr.Enabled() {
			c.tr.Emit(trace.Event{
				Kind: trace.KindRPCDone, Op: OpName(OpVerdict), Reason: errReason(err),
				Req: cl.req, Attempt: cl.attempt + 1, DurUs: int64((now - cl.start) / time.Microsecond),
			})
		}
		c.onFailureLocked(now)
		c.maybeRetryLocked(cl, now)
	} else {
		if c.tr.Enabled() {
			c.tr.Emit(trace.Event{
				Kind: trace.KindRPCDone, Op: OpName(OpVerdict), Reason: "ok",
				Req: cl.req, Attempt: cl.attempt + 1, DurUs: int64((now - cl.start) / time.Microsecond),
			})
		}
		doResync = c.onSuccessLocked(r)
		if !r.Verdict.Unhealthy {
			c.entries[cl.key] = entry{allowed: r.Verdict.Allowed, wide: r.Verdict.Wide, at: now}
		}
	}
	c.mu.Unlock()
	if doResync {
		c.doResync()
	}
}

func (c *Client) onDeadline(cl *call) {
	c.mu.Lock()
	if cl.completed || c.pending[cl.key] != cl {
		c.mu.Unlock()
		return
	}
	cl.completed = true
	cl.err = ErrDeadline
	delete(c.pending, cl.key)
	now := c.cfg.Now()
	c.timeouts++
	c.failuresTotal++
	c.observeLocked(OpVerdict, now-cl.start, false)
	if c.tr.Enabled() {
		c.tr.Emit(trace.Event{
			Kind: trace.KindRPCTimeout, Op: OpName(OpVerdict),
			Req: cl.req, Attempt: cl.attempt + 1, DurUs: int64((now - cl.start) / time.Microsecond),
		})
	}
	c.onFailureLocked(now)
	c.maybeRetryLocked(cl, now)
	c.mu.Unlock()
}

// observeLocked feeds one attempt outcome to the SLO tracker.
func (c *Client) observeLocked(op Op, latency time.Duration, ok bool) {
	if c.slo != nil {
		c.slo.Observe(OpName(op), latency, ok)
	}
}

// errReason classifies a call error for trace events.
func errReason(err error) string {
	switch err {
	case ErrUnavailable:
		return "unavailable"
	case ErrDeadline:
		return "deadline"
	default:
		return "error"
	}
}

func (c *Client) maybeRetryLocked(cl *call, now time.Duration) {
	if cl.attempt >= maxRetries {
		if c.tr.Enabled() {
			c.tr.Emit(trace.Event{
				Kind: trace.KindRPCDrop, Op: OpName(OpVerdict), Reason: "retries_exhausted",
				Req: cl.req, Attempt: cl.attempt + 1,
			})
		}
		return
	}
	if !c.allowCallLocked(now) {
		if c.tr.Enabled() {
			c.tr.Emit(trace.Event{
				Kind: trace.KindRPCDrop, Op: OpName(OpVerdict), Reason: "breaker_open",
				Req: cl.req, Attempt: cl.attempt + 1,
			})
		}
		return
	}
	if !c.takeTokenLocked(now) {
		c.budgetExhausted++
		if c.tr.Enabled() {
			c.tr.Emit(trace.Event{
				Kind: trace.KindRPCDrop, Op: OpName(OpVerdict), Reason: "budget_exhausted",
				Req: cl.req, Attempt: cl.attempt + 1,
			})
		}
		return
	}
	c.retries++
	attempt := cl.attempt + 1
	key := cl.key
	req := cl.req
	backoff := c.backoffLocked(attempt)
	if c.tr.Enabled() {
		c.tr.Emit(trace.Event{
			Kind: trace.KindRPCRetry, Op: OpName(OpVerdict), Req: req,
			Attempt: attempt + 1, DurUs: int64(backoff / time.Microsecond),
		})
	}
	c.cfg.After(backoff, func() { c.retryCall(key, attempt, req) })
}

func (c *Client) retryCall(key Key, attempt int, req uint64) {
	c.mu.Lock()
	busy := false
	if _, ok := c.pending[key]; ok {
		busy = true
	}
	if busy || !c.allowCallLocked(c.cfg.Now()) {
		if c.tr.Enabled() {
			reason := "breaker_open"
			if busy {
				reason = "busy"
			}
			c.tr.Emit(trace.Event{
				Kind: trace.KindRPCDrop, Op: OpName(OpVerdict), Reason: reason,
				Req: req, Attempt: attempt + 1,
			})
		}
		c.mu.Unlock()
		return
	}
	cl := c.newCallLocked(key, attempt, req)
	c.mu.Unlock()
	c.send(cl)
}

// backoffLocked is exponential in the attempt number, capped, and jittered
// into [d/2, d] when a jitter stream is installed (the simulator installs a
// named engine stream only for fault-enabled runs, so zero-fault runs draw
// no RNG).
func (c *Client) backoffLocked(attempt int) time.Duration {
	d := min(retryBase<<(attempt-1), retryMax)
	if c.cfg.Jitter != nil && d > 1 {
		half := int64(d) / 2
		d = time.Duration(half + c.cfg.Jitter.Int63n(half+1))
	}
	return d
}

// breakerStateLocked returns the breaker state, lazily half-opening an
// expired open circuit.
func (c *Client) breakerStateLocked(now time.Duration) int {
	if c.breaker == breakerOpen && now >= c.openUntil {
		c.setBreakerLocked(breakerHalfOpen)
		c.probing = false
	}
	return c.breaker
}

// setBreakerLocked moves the breaker and records the transition.
func (c *Client) setBreakerLocked(state int) {
	if state == c.breaker {
		return
	}
	if c.tr.Enabled() {
		c.tr.Emit(trace.Event{
			Kind:   trace.KindRPCBreaker,
			Reason: breakerName(c.breaker) + "->" + breakerName(state),
		})
	}
	if state == breakerOpen {
		c.breakerOpens++
	}
	c.breaker = state
	c.publishHitFastLocked()
}

func (c *Client) allowCallLocked(now time.Duration) bool {
	switch c.breakerStateLocked(now) {
	case breakerClosed:
		return true
	case breakerHalfOpen:
		return !c.probing // one probe at a time
	default:
		return false
	}
}

func (c *Client) onFailureLocked(now time.Duration) {
	switch c.breaker {
	case breakerClosed:
		c.failures++
		if c.failures >= breakerFailures {
			c.setBreakerLocked(breakerOpen)
			c.openUntil = now + breakerCooldown
			c.failures = 0
		}
	case breakerHalfOpen:
		c.setBreakerLocked(breakerOpen)
		c.openUntil = now + breakerCooldown
		c.probing = false
	}
}

// onSuccessLocked closes the breaker and reports whether a resync is due
// (epoch change detected, or failed ingest traffic flagged one).
func (c *Client) onSuccessLocked(r *Response) bool {
	c.failures = 0
	if c.breaker != breakerClosed {
		c.setBreakerLocked(breakerClosed)
		c.probing = false
	}
	doResync := false
	if c.lastEpoch == 0 {
		c.lastEpoch = r.Epoch
	} else if r.Epoch != c.lastEpoch {
		c.lastEpoch = r.Epoch
		doResync = true
	}
	if c.needResync {
		doResync = true
	}
	return doResync && !c.resyncing
}

// takeTokenLocked spends one retry token, refilling by elapsed time first.
func (c *Client) takeTokenLocked(now time.Duration) bool {
	elapsed := now - c.lastRefill
	if elapsed > 0 {
		c.tokensMilli = min(c.tokensMilli+int64(elapsed.Seconds()*retryBudgetPerSec*1000), retryBurst*1000)
		c.lastRefill = now
	}
	if c.tokensMilli < 1000 {
		return false
	}
	c.tokensMilli -= 1000
	return true
}

// IngestFix streams one committed registry fix to the service.
func (c *Client) IngestFix(id frame.NodeID, fix loc.Fix) {
	c.sendIngest([]IngestRecord{{Op: RecReport, Node: id, Fix: fix}})
}

// IngestDeregister streams one deregistration to the service.
func (c *Client) IngestDeregister(id frame.NodeID) {
	c.sendIngest([]IngestRecord{{Op: RecDeregister, Node: id}})
}

// InvalidateNode mirrors Agent.OnStationChanged on the control plane: the
// client's own verdict entries involving id are dropped immediately, and
// the service is told to do the same. A failed delivery queues the node for
// replay at the next resync, so invalidations are never silently lost.
func (c *Client) InvalidateNode(id frame.NodeID) {
	now := c.cfg.Now()
	c.mu.Lock()
	for k := range c.entries {
		if k.Ongoing.Src == id || k.Ongoing.Dst == id || k.MyDst == id {
			delete(c.entries, k)
		}
	}
	allowed := c.allowCallLocked(now)
	if !allowed {
		c.pendingInval[id] = true
		c.needResync = true
		if c.tr.Enabled() {
			c.tr.Emit(trace.Event{Kind: trace.KindRPCDrop, Op: OpName(OpInvalidateNode), Reason: "breaker_open"})
		}
	}
	c.mu.Unlock()
	if allowed {
		c.fire(&Request{Op: OpInvalidateNode, Node: id}, func() {
			c.pendingInval[id] = true
		})
	}
}

// sendIngest fires an ingest batch. A lost batch needs no replay record:
// the failure flags a resync, which re-ingests the full registry.
func (c *Client) sendIngest(recs []IngestRecord) {
	now := c.cfg.Now()
	c.mu.Lock()
	allowed := c.allowCallLocked(now)
	if allowed {
		c.ingestCalls++
	} else {
		// Breaker open: don't hammer a down service with the fix stream;
		// the post-recovery resync replays the full registry instead.
		c.needResync = true
		if c.tr.Enabled() {
			c.tr.Emit(trace.Event{
				Kind: trace.KindRPCDrop, Op: OpName(OpIngest),
				Reason: "breaker_open", Count: len(recs),
			})
		}
	}
	c.mu.Unlock()
	if allowed {
		c.fire(&Request{Op: OpIngest, Recs: recs}, nil)
	}
}

// fire issues a fire-and-forget call with deadline tracking: failures and
// timeouts feed the breaker and flag a resync, successes feed epoch-change
// detection. Fire-and-forget requests are single-attempt — they are never
// retried, the resync plane replays them instead.
func (c *Client) fire(req *Request, onFail func()) {
	f := &fireCall{onFail: onFail, op: req.Op}
	c.mu.Lock()
	c.nextReq++
	f.req = c.nextReq
	f.start = c.cfg.Now()
	req.Ctx = CallContext{Run: c.run, Req: f.req, Attempt: 1}
	if c.tr.Enabled() {
		c.tr.Emit(trace.Event{
			Kind: trace.KindRPCCall, Op: OpName(req.Op),
			Req: f.req, Attempt: 1, Count: len(req.Recs),
		})
	}
	c.mu.Unlock()
	completed := c.transport.Invoke(req, func(r *Response, err error) { c.onFireDone(f, r, err) })
	if !completed {
		c.mu.Lock()
		if !f.completed {
			f.cancel = c.cfg.After(callDeadline, func() { c.onFireTimeout(f) })
		}
		c.mu.Unlock()
	}
}

func (c *Client) onFireDone(f *fireCall, r *Response, err error) {
	doResync := false
	c.mu.Lock()
	if f.completed {
		c.mu.Unlock()
		return
	}
	f.completed = true
	if f.cancel != nil {
		f.cancel()
		f.cancel = nil
	}
	now := c.cfg.Now()
	c.observeLocked(f.op, now-f.start, err == nil)
	if err != nil {
		c.failuresTotal++
		if c.tr.Enabled() {
			c.tr.Emit(trace.Event{
				Kind: trace.KindRPCDone, Op: OpName(f.op), Reason: errReason(err),
				Req: f.req, Attempt: 1, DurUs: int64((now - f.start) / time.Microsecond),
			})
		}
		c.onFailureLocked(now)
		c.needResync = true
		if f.onFail != nil {
			f.onFail()
		}
	} else {
		if c.tr.Enabled() {
			c.tr.Emit(trace.Event{
				Kind: trace.KindRPCDone, Op: OpName(f.op), Reason: "ok",
				Req: f.req, Attempt: 1, DurUs: int64((now - f.start) / time.Microsecond),
			})
		}
		doResync = c.onSuccessLocked(r)
	}
	c.mu.Unlock()
	if doResync {
		c.doResync()
	}
}

func (c *Client) onFireTimeout(f *fireCall) {
	c.mu.Lock()
	if f.completed {
		c.mu.Unlock()
		return
	}
	f.completed = true
	c.timeouts++
	c.failuresTotal++
	now := c.cfg.Now()
	c.observeLocked(f.op, now-f.start, false)
	if c.tr.Enabled() {
		c.tr.Emit(trace.Event{
			Kind: trace.KindRPCTimeout, Op: OpName(f.op),
			Req: f.req, Attempt: 1, DurUs: int64((now - f.start) / time.Microsecond),
		})
	}
	c.onFailureLocked(now)
	c.needResync = true
	if f.onFail != nil {
		f.onFail()
	}
	c.mu.Unlock()
}

// doResync re-seeds a restarted (or missed-writes) service: pending
// invalidations replay first in node order, then the full registry dump
// re-ingests. Everything is deterministic — sorted replay over the
// registry's ID-ordered state.
func (c *Client) doResync() {
	c.mu.Lock()
	if c.resyncing {
		c.mu.Unlock()
		return
	}
	c.resyncing = true
	c.needResync = false
	c.resyncs++
	var invals []frame.NodeID
	for id := range c.pendingInval {
		invals = append(invals, id)
	}
	c.pendingInval = make(map[frame.NodeID]bool)
	fn := c.resyncFn
	c.mu.Unlock()

	slices.Sort(invals)
	for _, id := range invals {
		node := id
		c.fire(&Request{Op: OpInvalidateNode, Node: node}, func() { c.pendingInval[node] = true })
	}
	if fn != nil {
		if recs := fn(); len(recs) > 0 {
			c.fire(&Request{Op: OpIngest, Recs: recs}, nil)
		}
	}
	c.mu.Lock()
	c.resyncing = false
	c.mu.Unlock()
}

// ClientStatus is a race-safe snapshot for /healthz.
type ClientStatus struct {
	Breaker string `json:"breaker"`
	// BreakerOpens counts circuit-breaker trips (transitions into open).
	BreakerOpens int64  `json:"breaker_opens"`
	Rung         string `json:"rung"`
	// RungDwellSec is how long the client has been serving from the
	// current ladder rung — a degraded run is diagnosable from one scrape
	// (is this a blip or a stuck degradation?).
	RungDwellSec float64 `json:"rung_dwell_sec"`
	// RetryBudget is the remaining retry tokens.
	RetryBudget float64 `json:"retry_budget"`
	// RungDecisions counts decisions served per rung.
	RungDecisions     map[string]int64 `json:"rung_decisions"`
	LadderTransitions int64            `json:"ladder_transitions"`
	Calls             int64            `json:"calls"`
	IngestCalls       int64            `json:"ingest_calls"`
	Failures          int64            `json:"failures"`
	Timeouts          int64            `json:"timeouts"`
	Retries           int64            `json:"retries"`
	BudgetExhausted   int64            `json:"budget_exhausted"`
	Resyncs           int64            `json:"resyncs"`
	PendingCalls      int              `json:"pending_calls"`
	Epoch             uint64           `json:"epoch"`
}

// Status snapshots the client. Safe for concurrent use with the sim.
func (c *Client) Status() ClientStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := ClientStatus{
		Breaker:           breakerName(c.breaker),
		BreakerOpens:      c.breakerOpens,
		Rung:              c.rung.String(),
		RetryBudget:       float64(c.tokensMilli) / 1000,
		LadderTransitions: c.transitions,
		Calls:             c.calls,
		IngestCalls:       c.ingestCalls,
		Failures:          c.failuresTotal,
		Timeouts:          c.timeouts,
		Retries:           c.retries,
		BudgetExhausted:   c.budgetExhausted,
		Resyncs:           c.resyncs,
		PendingCalls:      len(c.pending),
		Epoch:             c.lastEpoch,
		RungDwellSec:      (c.cfg.Now() - c.rungSince).Seconds(),
	}
	st.RungDecisions = map[string]int64{
		RungFresh.String():  c.rungDecisions[RungFresh] + c.freshHits.Load(),
		RungStale.String():  c.rungDecisions[RungStale],
		RungCoarse.String(): c.rungDecisions[RungCoarse],
		RungDCF.String():    c.rungDecisions[RungDCF],
	}
	return st
}
