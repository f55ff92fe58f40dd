// Package mac implements the IEEE 802.11 Distributed Coordination Function
// (DCF) over the simulated channel: slotted binary-exponential (or fixed,
// Bianchi-style) backoff, DIFS/EIFS deferral, data/ACK exchange with
// retransmissions, and physical carrier sense. RTS/CTS is not implemented —
// the paper disables virtual carrier sense in all experiments.
//
// CO-MAP plugs in through three extension points:
//
//   - Config.SendDiscoveryHeader prepends the small CO-MAP header frame to
//     every data transmission so neighbors learn (src, dst) early;
//   - Config.Concurrency is consulted when such a header is decoded: if the
//     co-occurrence map allows it, the node keeps counting its backoff down
//     through the busy medium (an exposed-terminal concurrent transmission),
//     guarded by the RSSI-step rule (RSSI2 ≥ RSSI1 + T'cs ⇒ another exposed
//     terminal started first, abandon — paper Fig. 6);
//   - Hooks.MakeAck lets the link layer replace the plain ACK with a
//     selective-repeat ACK.
package mac

import (
	"errors"
	"math"
	"math/rand"
	"time"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// RateSelector chooses transmit rates and learns from per-frame feedback.
// Package rate provides implementations.
type RateSelector interface {
	RateFor(dst frame.NodeID) phy.Rate
	Feedback(dst frame.NodeID, r phy.Rate, ok bool)
}

// ConcurrencyPolicy decides whether this node may transmit concurrently with
// an announced ongoing transmission. CO-MAP implements it with the
// co-occurrence map; basic DCF uses nil (never).
type ConcurrencyPolicy interface {
	// Allowed is invoked when the discovery header of the ongoing
	// transmission ongoingSrc→ongoingDst is decoded while this node has a
	// frame queued for ourDst.
	Allowed(ongoingSrc, ongoingDst, ourDst frame.NodeID) bool
}

// RateCapper bounds the data rate of a concurrent (exposed-terminal)
// transmission: the paper derives from positions how strong the ongoing
// transmitter's interference is at our receiver and picks the fastest rate
// whose SIR requirement still holds ("a higher data rate could be adapted if
// it is located further away", §VI-A).
type RateCapper interface {
	// CapRate returns the rate to use instead of chosen while the link
	// ongoingSrc→ongoingDst is on the air.
	CapRate(ongoingSrc, ongoingDst, myDst frame.NodeID, chosen phy.Rate) phy.Rate
}

// Hooks are upper-layer callbacks. Any field may be nil.
type Hooks struct {
	// OnSendComplete fires when the MAC is done with a data frame: acked, or
	// given up (retry limit / no-retransmit mode).
	OnSendComplete func(f frame.Frame, acked bool)
	// OnReceive fires for every successfully decoded data frame addressed to
	// this node. Duplicate suppression is the caller's job (see package arq).
	OnReceive func(f frame.Frame, rssiDBm float64)
	// OnControl fires for decoded discovery headers and location beacons
	// (regardless of addressing), so upper layers can observe the air.
	OnControl func(f frame.Frame, rssiDBm float64)
	// OnAckInfo fires for every decoded (SR)ACK addressed to this node,
	// before sequence matching, so selective-repeat state can be repaired.
	OnAckInfo func(f frame.Frame)
	// MakeAck builds the acknowledgement for a received data frame. nil
	// uses the standard ACK; returning false suppresses the ACK.
	MakeAck func(data frame.Frame) (frame.Frame, bool)
}

// Config parameterises a MAC instance.
type Config struct {
	// PHY supplies timing and the rate set.
	PHY phy.Params
	// CCAThresholdDBm is the energy-detection carrier-sense threshold
	// (the paper's Tcs).
	CCAThresholdDBm float64
	// FixedCW, when positive, uses a constant contention window of that many
	// slots (the Bianchi model's assumption and CO-MAP's adapted setting).
	// Otherwise binary exponential backoff runs between PHY.CWMin and CWMax.
	FixedCW int
	// NoRetransmit disables MAC retransmission: a missing ACK completes the
	// frame with acked=false. CO-MAP's selective-repeat layer sets this and
	// handles recovery itself (paper §IV-C4).
	NoRetransmit bool
	// RTSThresholdBytes enables the RTS/CTS handshake for data frames whose
	// payload is at least this size (0 disables it, as in all of the
	// paper's experiments; it is provided as a hidden-terminal-mitigation
	// baseline). Bystanders decode RTS/CTS and set their NAV across the
	// announced exchange. Not meant to be combined with the CO-MAP
	// extensions.
	RTSThresholdBytes int
	// SendDiscoveryHeader prepends the CO-MAP header frame to data frames.
	SendDiscoveryHeader bool
	// Concurrency enables exposed-terminal concurrent transmissions.
	Concurrency ConcurrencyPolicy
	// RateCap, when set, bounds the rate of concurrent transmissions by the
	// position-predicted interference (see RateCapper).
	RateCap RateCapper
	// Rates selects transmit rates; nil uses the PHY's lowest rate.
	Rates RateSelector
	// Metrics, when set, receives the MAC's telemetry: the "mac.access_latency"
	// enqueue→ACK timing and the "mac" airtime state clock whose states
	// (tx/wait/busy/nav/defer/backoff/idle) partition the run duration.
	Metrics *metrics.Registry
	// Trace, when set, receives the MAC's protocol-decision events
	// (mac.enqueue / mac.bo_start / mac.bo_freeze / mac.tx / mac.ack /
	// mac.timeout / mac.drop and the et.join / et.abandon exposed-terminal
	// decisions). Purely observational; nil costs nothing.
	Trace trace.Sink
}

const (
	// retryLimit is the maximum number of retransmissions per frame in
	// standard mode.
	retryLimit = 7
	// queueCap bounds the transmit queue.
	queueCap = 128
)

type fixedLowest struct{ r phy.Rate }

func (f fixedLowest) RateFor(frame.NodeID) phy.Rate         { return f.r }
func (f fixedLowest) Feedback(frame.NodeID, phy.Rate, bool) {}

// ErrQueueFull is returned by Enqueue when the transmit queue is at capacity.
var ErrQueueFull = errors.New("mac: transmit queue full")

type phase int

const (
	phaseIdle phase = iota
	phaseAccess
	phaseTxHeader
	phaseTxRTS
	phaseWaitCTS
	phaseTxData
	phaseWaitAck
)

// MAC is one station's DCF instance. It implements channel.Listener.
type MAC struct {
	eng   *sim.Engine
	tr    *channel.Transceiver
	cfg   Config
	rng   *rand.Rand
	hooks Hooks
	stat  *stats.Counter

	queue []frame.Frame
	// queuedAt mirrors queue with each frame's enqueue time, feeding the
	// access-latency timing.
	queuedAt []time.Duration
	retries  int
	cw       int
	counter  int
	st       phase
	curRate  phy.Rate

	busy bool
	// energyDBm is the aggregate energy last reported by the channel;
	// energyMW converts it on demand, since only the exposed-terminal
	// branches need milliwatts. A fresh MAC starts at -Inf (no energy).
	energyDBm float64
	eifs      bool
	// navActive implements the basic virtual carrier sense set from the
	// Duration field of decoded frames addressed to other stations: it keeps
	// the medium "busy" across the SIFS+ACK tail of their exchange. (This is
	// not RTS/CTS — that stays disabled as in the paper.)
	navActive bool
	navEv     sim.Handle

	difsEv       sim.Handle
	slotEv       sim.Handle
	ackTimeoutEv sim.Handle
	ctsTimeoutEv sim.Handle

	ackPending bool
	// ctl is the ACK or CTS waiting out its SIFS. One suffices: replies
	// answer frame ends, which are at least one airtime (> SIFS) apart.
	ctl frame.Frame

	// Timer callbacks bound once in New, so re-arming one allocates nothing.
	deferFn, slotFn, ackTimeoutFn, ctsTimeoutFn, navFn, concExpiryFn, ctsDataFn, ctlFn func()

	concurrent   bool
	concPending  bool
	concExpiryEv sim.Handle
	rssi1MW      float64
	// etDeltaMW is T'cs in milliwatts, converted once: the rise in
	// aggregate energy above RSSI1 that signals a second exposed terminal
	// has started transmitting. T'cs equals the CCA threshold Tcs.
	etDeltaMW float64
	// concSrc/concDst identify the ongoing link we are overlapping with.
	concSrc, concDst frame.NodeID
	// persistent mirrors the paper's testbed implementation: once the agent
	// has validated that every active neighbouring link can coexist with
	// ours, carrier sense is effectively disabled ("we enable the concurrent
	// transmissions of one ET by disabling its carrier sense with a high CCA
	// threshold", §VI-B) until the agent revokes it.
	persistent bool

	// rateKey caches "tx.rate.<name>" stat keys so the data hot path
	// never concatenates per frame.
	rateKey map[string]string

	accessLatency *metrics.Timing
	dropLatency   *metrics.Timing
	// latencyTo holds the per-destination access-latency timings behind the
	// per-flow delay tails in netsim.Report (p999, worst case).
	latencyTo map[frame.NodeID]*metrics.Timing
	air       *metrics.StateClock
	// owner is the station's ID as an attribution owner for the profiler's
	// tagged timers.
	owner int32

	trace *trace.Emitter
}

var _ channel.Listener = (*MAC)(nil)

// New creates a MAC bound to a transceiver slot on the medium. The caller
// supplies the node's ID and position through medium.AddNode indirectly:
// use Attach for the common construction.
func New(eng *sim.Engine, tr *channel.Transceiver, cfg Config) *MAC {
	if cfg.Rates == nil {
		cfg.Rates = fixedLowest{cfg.PHY.LowestRate()}
	}
	m := &MAC{
		eng:       eng,
		tr:        tr,
		cfg:       cfg,
		rng:       eng.RNG("mac.backoff." + itoa(int(tr.ID()))),
		stat:      stats.NewCounter(),
		counter:   -1,
		cw:        0,
		owner:     int32(tr.ID()),
		energyDBm: math.Inf(-1),
		etDeltaMW: radio.DBmToMilliwatts(cfg.CCAThresholdDBm),
	}
	m.cw = m.initialCW()
	m.deferFn, m.slotFn, m.ackTimeoutFn, m.ctsTimeoutFn = m.onDeferComplete, m.onSlot, m.onAckTimeout, m.onCTSTimeout
	m.navFn, m.concExpiryFn, m.ctsDataFn, m.ctlFn = m.onNAVExpiry, m.onConcExpiry, m.onCTSSIFS, m.sendCtl
	m.rateKey = make(map[string]string, len(cfg.PHY.Rates)+1)
	for _, r := range cfg.PHY.Rates {
		m.rateKey[r.Name] = "tx.rate." + r.Name
	}
	m.rateKey[cfg.PHY.BasicRate.Name] = "tx.rate." + cfg.PHY.BasicRate.Name
	// Nil-safe instruments: with no registry these stay nil and every
	// recording below is a no-op.
	m.accessLatency = cfg.Metrics.Timing("mac.access_latency")
	m.dropLatency = cfg.Metrics.Timing("mac.drop_latency")
	if cfg.Metrics != nil {
		m.latencyTo = make(map[frame.NodeID]*metrics.Timing)
	}
	m.air = cfg.Metrics.StateClock("mac", eng.Now, "idle")
	m.trace = trace.NewEmitter(eng, tr.ID(), cfg.Trace)
	return m
}

// after schedules a MAC-owned timer, attributed to this station under the
// "mac" profiling tag.
func (m *MAC) after(d time.Duration, fn func()) sim.Handle {
	return m.eng.AfterTagged(d, sim.TagMAC, m.owner, fn)
}

// latencyToDst returns the per-destination access-latency timing, creating
// it on first use ("mac.access_latency.to.<dst>"). nil without a registry.
func (m *MAC) latencyToDst(dst frame.NodeID) *metrics.Timing {
	if m.latencyTo == nil {
		return nil
	}
	t, ok := m.latencyTo[dst]
	if !ok {
		t = m.cfg.Metrics.Timing("mac.access_latency.to." + itoa(int(dst)))
		m.latencyTo[dst] = t
	}
	return t
}

// airtimeState derives the current airtime-accounting state. Priority
// matters: a transmitting radio is "tx" whatever the access phase, a busy
// medium masks a frozen backoff, and the DIFS/EIFS wait is split out from
// the slot countdown so defer time is visible separately.
func (m *MAC) airtimeState() string {
	switch {
	case m.tr.Transmitting():
		return "tx"
	case m.st == phaseWaitAck || m.st == phaseWaitCTS || m.ackPending:
		return "wait"
	case m.busy:
		return "busy"
	case m.navActive:
		return "nav"
	case m.st == phaseAccess:
		if m.difsEv.Active() {
			return "defer"
		}
		return "backoff"
	default:
		return "idle"
	}
}

// touchAir re-derives the airtime state; called after every transition that
// can change it.
func (m *MAC) touchAir() { m.air.Set(m.airtimeState()) }

// rateStatKey returns the cached "tx.rate.<name>" key, falling back to
// concatenation for rates outside the configured set.
func (m *MAC) rateStatKey(name string) string {
	if k, ok := m.rateKey[name]; ok {
		return k
	}
	return "tx.rate." + name
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func (m *MAC) initialCW() int {
	if m.cfg.FixedCW > 0 {
		return m.cfg.FixedCW
	}
	return m.cfg.PHY.CWMin + 1
}

func (m *MAC) maxCW() int {
	if m.cfg.FixedCW > 0 {
		return m.cfg.FixedCW
	}
	return m.cfg.PHY.CWMax + 1
}

// ID returns the station's node ID.
func (m *MAC) ID() frame.NodeID { return m.tr.ID() }

// SetHooks installs the upper-layer callbacks. Call before traffic starts.
func (m *MAC) SetHooks(h Hooks) { m.hooks = h }

// Stats returns the MAC's protocol counters: "tx.data", "tx.retry",
// "tx.header", "rx.data", "rx.corrupt", "ack.timeout", "et.opportunity",
// "et.concurrent_tx", "et.abandon", "drop.retry_limit", "drop.queue_full".
func (m *MAC) Stats() *stats.Counter { return m.stat }

// QueueLen returns the number of frames waiting (including the one in
// service).
func (m *MAC) QueueLen() int { return len(m.queue) }

// SetFixedCW changes the constant contention window at runtime — CO-MAP's
// packet-size/CW adaptation calls this when the hidden-terminal count
// changes. It takes effect from the next backoff draw.
func (m *MAC) SetFixedCW(w int) {
	if w < 1 {
		return
	}
	m.cfg.FixedCW = w
	m.cw = w
}

// Enqueue queues a data frame (or location beacon) for transmission. The
// frame's Src is overwritten with this station's ID.
func (m *MAC) Enqueue(f frame.Frame) error {
	f.Src = m.ID()
	if len(m.queue) >= queueCap {
		m.stat.Inc("drop.queue_full")
		if m.trace.Enabled() {
			e := trace.FrameEvent(trace.KindDrop, f)
			e.Reason = "queue_full"
			m.trace.Emit(e)
		}
		return ErrQueueFull
	}
	m.queue = append(m.queue, f)
	m.queuedAt = append(m.queuedAt, m.eng.Now())
	if m.trace.Enabled() {
		e := trace.FrameEvent(trace.KindEnqueue, f)
		e.Queue = len(m.queue)
		m.trace.Emit(e)
	}
	if m.st == phaseIdle && !m.ackPending {
		m.startAccess()
	}
	m.touchAir()
	return nil
}

// --- access procedure ---------------------------------------------------

func (m *MAC) startAccess() {
	m.st = phaseAccess
	if m.counter < 0 {
		m.counter = m.rng.Intn(m.cw)
		if m.trace.Enabled() && len(m.queue) > 0 {
			e := trace.FrameEvent(trace.KindBackoffStart, m.queue[0])
			e.CW = m.cw
			e.Slots = m.counter
			e.Retries = m.retries
			m.trace.Emit(e)
		}
	}
	if m.concurrent {
		// Refresh the RSSI baseline: energy seen now (the ongoing data) is
		// the reference against which a second exposed terminal's start is
		// detected.
		m.rssi1MW = m.energyMW()
	}
	m.scheduleDefer()
}

// channelClear reports whether, for backoff purposes, the medium counts as
// available: physically idle with no NAV reservation, or busy with a
// transmission we are allowed to overlap (concurrent exposed-terminal mode,
// which deliberately ignores both physical CS and the NAV).
func (m *MAC) channelClear() bool {
	if m.ackPending {
		return false
	}
	if m.concurrent || m.persistent {
		return true
	}
	return !m.busy && !m.navActive
}

// SetPersistentConcurrent enables or revokes persistent concurrency (carrier
// sense effectively disabled). CO-MAP's agent toggles it when the set of
// active neighbouring links is fully coexistence-validated.
func (m *MAC) SetPersistentConcurrent(on bool) {
	if m.persistent == on {
		return
	}
	m.persistent = on
	m.reevaluateAccess()
	m.touchAir()
}

// setNAV reserves the medium until the end of another station's ACK
// exchange.
func (m *MAC) setNAV(d time.Duration) {
	until := m.eng.Now() + d
	if m.navActive && m.navEv.Active() && m.navEv.At() >= until {
		return // existing reservation already covers it
	}
	m.eng.Cancel(m.navEv)
	m.navActive = true
	m.navEv = m.after(d, m.navFn)
	m.reevaluateAccess()
	m.touchAir()
}

func (m *MAC) onNAVExpiry() {
	m.navEv = sim.Handle{}
	m.navActive = false
	m.reevaluateAccess()
	m.touchAir()
}

func (m *MAC) cancelAccessTimers() {
	m.eng.Cancel(m.difsEv)
	m.difsEv = sim.Handle{}
	m.eng.Cancel(m.slotEv)
	m.slotEv = sim.Handle{}
}

func (m *MAC) scheduleDefer() {
	m.cancelAccessTimers()
	if m.st != phaseAccess || !m.channelClear() {
		m.touchAir()
		return
	}
	d := m.cfg.PHY.DIFS()
	if m.eifs {
		d = m.cfg.PHY.EIFS()
	}
	m.difsEv = m.after(d, m.deferFn)
	m.touchAir()
}

func (m *MAC) onDeferComplete() {
	m.difsEv = sim.Handle{}
	m.eifs = false
	if m.counter == 0 {
		m.beginTx()
		return
	}
	m.slotEv = m.after(m.cfg.PHY.SlotTime, m.slotFn)
	m.touchAir()
}

func (m *MAC) onSlot() {
	m.slotEv = sim.Handle{}
	m.counter--
	if m.counter == 0 {
		m.beginTx()
		return
	}
	m.slotEv = m.after(m.cfg.PHY.SlotTime, m.slotFn)
}

// --- transmission -------------------------------------------------------

func (m *MAC) beginTx() {
	m.cancelAccessTimers()
	m.counter = -1
	if m.concurrent || (m.persistent && m.busy) {
		m.stat.Inc("et.concurrent_tx")
	}
	cur := m.queue[0]
	if m.useRTS(cur) {
		m.st = phaseTxRTS
		rts := frame.Frame{Kind: frame.RTS, Src: m.ID(), Dst: cur.Dst, PayloadBytes: cur.PayloadBytes}
		m.stat.Inc("tx.rts")
		m.transmit(rts, m.cfg.PHY.BasicRate)
		return
	}
	if m.cfg.SendDiscoveryHeader && cur.Kind == frame.Data {
		m.st = phaseTxHeader
		hdr := frame.Frame{Kind: frame.ComapHeader, Src: m.ID(), Dst: cur.Dst}
		m.stat.Inc("tx.header")
		m.transmit(hdr, m.cfg.PHY.BasicRate)
		return
	}
	m.sendData()
}

func (m *MAC) sendData() {
	cur := m.queue[0]
	m.st = phaseTxData
	r := m.cfg.PHY.BasicRate
	overlapping := m.concurrent || (m.persistent && m.busy)
	if cur.Kind == frame.Data {
		r = m.cfg.Rates.RateFor(cur.Dst)
		if overlapping && m.cfg.RateCap != nil && m.concSrc != 0 {
			r = m.cfg.RateCap.CapRate(m.concSrc, m.concDst, cur.Dst, r)
		}
	}
	m.curRate = r
	if m.trace.Enabled() {
		e := trace.FrameEvent(trace.KindTxAttempt, cur)
		e.Rate = r.Name
		e.Retries = m.retries
		e.Concurrent = overlapping
		m.trace.Emit(e)
	}
	m.stat.Inc("tx.data")
	m.stat.Inc(m.rateStatKey(r.Name))
	if cur.Retry {
		m.stat.Inc("tx.retry")
	}
	m.transmit(cur, r)
}

func (m *MAC) transmit(f frame.Frame, r phy.Rate) {
	airtime := m.cfg.PHY.FrameAirtime(r, f.AirBytes())
	if err := m.tr.Transmit(f, r, airtime); err != nil {
		// The radio is busy with an ACK we scheduled; treat as an internal
		// collision and retry through the normal timeout path.
		m.stat.Inc("tx.radio_busy")
		m.st = phaseAccess
		m.counter = -1
		m.startAccess()
	}
	m.touchAir()
}

// TransmitDone implements channel.Listener.
func (m *MAC) TransmitDone(f frame.Frame) {
	defer m.touchAir()
	switch {
	case f.Kind == frame.RTS && m.st == phaseTxRTS:
		m.st = phaseWaitCTS
		m.ctsTimeoutEv = m.after(m.ctsTimeout(), m.ctsTimeoutFn)
	case f.Kind == frame.ComapHeader && m.st == phaseTxHeader:
		m.sendData()
	case m.st == phaseTxData && (f.Kind == frame.Data || f.Kind == frame.LocationBeacon):
		if f.Kind != frame.Data || f.Dst == frame.Broadcast {
			m.completeCurrent(true, "broadcast")
			return
		}
		m.st = phaseWaitAck
		m.ackTimeoutEv = m.after(m.cfg.PHY.ACKTimeout(), m.ackTimeoutFn)
	case f.IsAck() || f.Kind == frame.CTS:
		m.ackPending = false
		m.resumeAfterAck()
	}
}

// useRTS reports whether the frame is sent behind an RTS/CTS handshake.
func (m *MAC) useRTS(f frame.Frame) bool {
	return m.cfg.RTSThresholdBytes > 0 && f.Kind == frame.Data &&
		f.Dst != frame.Broadcast && f.PayloadBytes >= m.cfg.RTSThresholdBytes
}

// ctsTimeout is how long the RTS sender waits for the CTS.
func (m *MAC) ctsTimeout() time.Duration {
	p := m.cfg.PHY
	return p.SIFS + p.FrameAirtime(p.BasicRate, frame.Frame{Kind: frame.CTS}.AirBytes()) + p.SlotTime
}

// onCTSTimeout handles a missing CTS: back off and retry like a collision.
func (m *MAC) onCTSTimeout() {
	defer m.touchAir()
	m.ctsTimeoutEv = sim.Handle{}
	m.stat.Inc("cts.timeout")
	if m.trace.Enabled() && len(m.queue) > 0 {
		e := trace.FrameEvent(trace.KindTimeout, m.queue[0])
		e.Reason = "cts"
		e.Retries = m.retries
		m.trace.Emit(e)
	}
	m.retries++
	if m.retries > retryLimit {
		m.stat.Inc("drop.retry_limit")
		m.completeCurrent(false, "retry_limit")
		return
	}
	if m.cfg.FixedCW <= 0 {
		m.cw = min(m.cw*2, m.maxCW())
	}
	m.st = phaseAccess
	m.counter = -1
	m.startAccess()
}

// exchangeNAV is the virtual-carrier-sense reservation a bystander sets
// after decoding an RTS or CTS: the remaining handshake plus the announced
// data frame and its acknowledgement, computed at the lowest rate (the
// conservative stand-in for the 802.11 Duration field).
func (m *MAC) exchangeNAV(kind frame.Kind, payloadBytes int) time.Duration {
	p := m.cfg.PHY
	d := p.SIFS + p.DataFrameAirtime(p.LowestRate(), payloadBytes) +
		p.SIFS + p.FrameAirtime(p.BasicRate, phy.SRAckBytes)
	if kind == frame.RTS {
		d += p.SIFS + p.FrameAirtime(p.BasicRate, frame.Frame{Kind: frame.CTS}.AirBytes())
	}
	return d
}

func (m *MAC) resumeAfterAck() {
	switch m.st {
	case phaseAccess:
		m.scheduleDefer()
	case phaseIdle:
		if len(m.queue) > 0 {
			m.startAccess()
		}
	}
	m.touchAir()
}

func (m *MAC) onAckTimeout() {
	defer m.touchAir()
	m.ackTimeoutEv = sim.Handle{}
	m.stat.Inc("ack.timeout")
	cur := m.queue[0]
	if m.trace.Enabled() {
		e := trace.FrameEvent(trace.KindTimeout, cur)
		e.Reason = "ack"
		e.Retries = m.retries
		m.trace.Emit(e)
	}
	m.cfg.Rates.Feedback(cur.Dst, m.curRate, false)
	if m.cfg.NoRetransmit {
		m.completeCurrent(false, "no_retransmit")
		return
	}
	m.retries++
	if m.retries > retryLimit {
		m.stat.Inc("drop.retry_limit")
		m.completeCurrent(false, "retry_limit")
		return
	}
	if m.cfg.FixedCW <= 0 {
		m.cw = min(m.cw*2, m.maxCW())
	}
	m.queue[0].Retry = true
	m.st = phaseAccess
	m.counter = -1
	m.startAccess()
}

// completeCurrent finishes service of the head-of-line frame and moves on.
// reason qualifies the trace event: the drop cause, or "broadcast" for
// frames that complete successfully without an acknowledgement.
func (m *MAC) completeCurrent(acked bool, reason string) {
	cur := m.queue[0]
	elapsed := m.eng.Now() - m.queuedAt[0]
	// Shift down in place: reslicing would make Enqueue reallocate.
	m.queue = m.queue[:copy(m.queue, m.queue[1:])]
	m.queuedAt = m.queuedAt[:copy(m.queuedAt, m.queuedAt[1:])]
	if acked {
		m.accessLatency.Observe(elapsed)
		if cur.Kind == frame.Data && cur.Dst != frame.Broadcast {
			m.latencyToDst(cur.Dst).Observe(elapsed)
		}
	} else {
		m.dropLatency.Observe(elapsed)
	}
	if m.trace.Enabled() {
		kind := trace.KindAck
		if !acked {
			kind = trace.KindDrop
		}
		e := trace.FrameEvent(kind, cur)
		e.Reason = reason
		e.Retries = m.retries
		e.DurUs = int64(elapsed / time.Microsecond)
		m.trace.Emit(e)
	}
	m.retries = 0
	m.cw = m.initialCW()
	m.counter = -1
	m.st = phaseIdle
	if m.hooks.OnSendComplete != nil {
		m.hooks.OnSendComplete(cur, acked)
	}
	if len(m.queue) > 0 && !m.ackPending {
		m.startAccess()
	}
	m.touchAir()
}

// --- reception ----------------------------------------------------------

// FrameReceived implements channel.Listener.
func (m *MAC) FrameReceived(f frame.Frame, ok bool, rssi float64) {
	defer m.touchAir()
	if !ok {
		m.stat.Inc("rx.corrupt")
		m.eifs = true
		return
	}
	switch f.Kind {
	case frame.Data:
		if f.Dst != m.ID() && f.Dst != frame.Broadcast {
			// Another station's data frame: honour its Duration field by
			// reserving the medium across the coming SIFS+ACK.
			m.setNAV(m.cfg.PHY.SIFS + m.cfg.PHY.FrameAirtime(m.cfg.PHY.BasicRate, phy.SRAckBytes))
			return
		}
		m.stat.Inc("rx.data")
		// Deliver before building the ACK so selective-repeat receivers can
		// include this frame in the ACK bitmap.
		if m.hooks.OnReceive != nil {
			m.hooks.OnReceive(f, rssi)
		}
		if f.Dst == m.ID() {
			m.scheduleAck(f)
		}
	case frame.Ack, frame.SRAck:
		if f.Dst != m.ID() {
			return
		}
		if m.hooks.OnAckInfo != nil {
			m.hooks.OnAckInfo(f)
		}
		if m.st == phaseWaitAck && len(m.queue) > 0 && ackCovers(f, m.queue[0].Seq) {
			m.eng.Cancel(m.ackTimeoutEv)
			m.ackTimeoutEv = sim.Handle{}
			m.cfg.Rates.Feedback(m.queue[0].Dst, m.curRate, true)
			m.completeCurrent(true, "")
		}
	case frame.ComapHeader:
		m.onHeaderDecoded(f, rssi)
		if m.hooks.OnControl != nil {
			m.hooks.OnControl(f, rssi)
		}
	case frame.LocationBeacon:
		if m.hooks.OnControl != nil {
			m.hooks.OnControl(f, rssi)
		}
	case frame.RTS:
		if f.Dst == m.ID() {
			m.stat.Inc("rx.rts")
			m.scheduleCTS(f)
			return
		}
		m.setNAV(m.exchangeNAV(frame.RTS, f.PayloadBytes))
	case frame.CTS:
		if f.Dst == m.ID() {
			if m.st != phaseWaitCTS {
				return
			}
			m.eng.Cancel(m.ctsTimeoutEv)
			m.ctsTimeoutEv = sim.Handle{}
			m.after(m.cfg.PHY.SIFS, m.ctsDataFn)
			return
		}
		m.setNAV(m.exchangeNAV(frame.CTS, f.PayloadBytes))
	}
}

// onCTSSIFS sends the data frame SIFS after its CTS arrived.
func (m *MAC) onCTSSIFS() {
	if m.st == phaseWaitCTS && !m.tr.Transmitting() {
		m.sendData()
	}
}

// promoteConcurrent searches the queue for a data frame whose destination
// passes concurrency validation against the ongoing link and moves it to the
// front (preserving the relative order of the rest). It reports whether a
// frame was promoted.
func (m *MAC) promoteConcurrent(ongoingSrc, ongoingDst frame.NodeID) bool {
	for i := 1; i < len(m.queue); i++ {
		f := m.queue[i]
		if f.Kind != frame.Data || f.Dst == m.queue[0].Dst {
			continue
		}
		if !m.cfg.Concurrency.Allowed(ongoingSrc, ongoingDst, f.Dst) {
			continue
		}
		at := m.queuedAt[i]
		copy(m.queue[1:i+1], m.queue[:i])
		m.queue[0] = f
		copy(m.queuedAt[1:i+1], m.queuedAt[:i])
		m.queuedAt[0] = at
		return true
	}
	return false
}

// scheduleCTS answers an RTS addressed to this node SIFS later.
func (m *MAC) scheduleCTS(rts frame.Frame) {
	m.scheduleCtl(frame.Frame{Kind: frame.CTS, Src: m.ID(), Dst: rts.Src, PayloadBytes: rts.PayloadBytes})
}

// ackCovers reports whether the acknowledgement frame confirms reception of
// sequence number seq: directly, or through a selective-repeat bitmap bit
// (bit i of an SRAck with number a acknowledges a-1-i).
func ackCovers(ack frame.Frame, seq uint16) bool {
	if ack.Seq == seq {
		return true
	}
	if ack.Kind != frame.SRAck {
		return false
	}
	diff := ack.Seq - 1 - seq
	return diff < 32 && ack.Bitmap&(1<<diff) != 0
}

// onHeaderDecoded implements CO-MAP's concurrency validation trigger: a
// neighbor announced an imminent transmission; consult the co-occurrence map
// and, if allowed, resume the backoff through the busy medium.
func (m *MAC) onHeaderDecoded(f frame.Frame, _ float64) {
	if f.Src != m.ID() && f.Dst != m.ID() {
		// Remember the most recent foreign link for concurrent rate capping
		// (also used in persistent mode, where no per-frame join happens).
		m.concSrc, m.concDst = f.Src, f.Dst
	}
	// The opportunity is latched regardless of MAC phase: a node in the
	// middle of its own ACK exchange can still join the announced
	// transmission once it re-enters the access procedure, as long as the
	// ongoing transmission is still on the air (concurrent clears at the
	// idle edge).
	if m.cfg.Concurrency == nil || m.concurrent || m.concPending {
		return
	}
	if f.Src == m.ID() || f.Dst == m.ID() || len(m.queue) == 0 {
		return
	}
	if !m.cfg.Concurrency.Allowed(f.Src, f.Dst, m.queue[0].Dst) {
		// "It may choose another receiver further away from the current
		// transmitter and verify again" (§IV-C1): an AP with several queued
		// receivers promotes the first one that passes validation. Only
		// legal while the head frame is not yet in service.
		if m.st != phaseAccess || !m.promoteConcurrent(f.Src, f.Dst) {
			return
		}
		m.stat.Inc("et.receiver_switch")
	}
	m.stat.Inc("et.opportunity")
	if f.Retry {
		// Embedded (in-flight) indication: the announced data frame is
		// already on the air, so the current energy is the RSSI1 baseline
		// and the backoff can resume right away.
		m.concurrent = true
		m.rssi1MW = m.energyMW()
		if m.trace.Enabled() {
			m.trace.Emit(trace.Event{
				Kind: trace.KindETJoin, Src: f.Src, Dst: f.Dst,
				OurDst: m.queue[0].Dst, Reason: "embedded",
			})
		}
		if m.st == phaseAccess {
			m.scheduleDefer()
		}
		return
	}
	// Separate header frame: RSSI1 is captured at the next energy rise — the
	// start of the announced data frame. The header→data gap passes through
	// a momentarily idle channel, so the pending state must survive the idle
	// edge; a one-slot expiry bounds it in case the announced data never
	// appears.
	m.concPending = true
	m.concExpiryEv = m.after(m.cfg.PHY.SlotTime, m.concExpiryFn)
}

func (m *MAC) onConcExpiry() {
	m.concExpiryEv = sim.Handle{}
	m.concPending = false
}

func (m *MAC) scheduleAck(data frame.Frame) {
	ack, ok := frame.Frame{Kind: frame.Ack, Src: m.ID(), Dst: data.Src, Seq: data.Seq}, true
	if m.hooks.MakeAck != nil {
		ack, ok = m.hooks.MakeAck(data)
	}
	if ok {
		m.scheduleCtl(ack)
	}
}

// scheduleCtl holds the medium for a control reply (ACK or CTS) and sends
// it SIFS later.
func (m *MAC) scheduleCtl(f frame.Frame) {
	m.ctl = f
	m.ackPending = true
	m.cancelAccessTimers()
	m.touchAir()
	m.after(m.cfg.PHY.SIFS, m.ctlFn)
}

func (m *MAC) sendCtl() {
	if m.tr.Transmitting() {
		// Should not happen (half-duplex discipline), but never wedge.
		m.ackPending = false
		m.resumeAfterAck()
		return
	}
	airtime := m.cfg.PHY.FrameAirtime(m.cfg.PHY.BasicRate, m.ctl.AirBytes())
	if err := m.tr.Transmit(m.ctl, m.cfg.PHY.BasicRate, airtime); err != nil {
		m.ackPending = false
		m.resumeAfterAck()
	}
	m.touchAir()
}

// energyMW returns the last reported aggregate energy in milliwatts: 0 for
// an idle channel (-Inf dBm).
func (m *MAC) energyMW() float64 { return dbmToMW(m.energyDBm) }

func dbmToMW(dbm float64) float64 {
	if math.IsInf(dbm, -1) {
		return 0
	}
	return radio.DBmToMilliwatts(dbm)
}

// EnergyChanged implements channel.Listener.
func (m *MAC) EnergyChanged(aggDBm float64) {
	defer m.touchAir()
	oldDBm := m.energyDBm
	m.energyDBm = aggDBm

	// Milliwatts are derived only inside the exposed-terminal branches that
	// compare them; the short-circuits keep every other report Pow-free.
	if m.concPending && m.energyMW() > dbmToMW(oldDBm) {
		// The announced data frame hit the air: record RSSI1 and resume the
		// backoff through the busy medium (paper Fig. 6).
		m.concPending = false
		m.eng.Cancel(m.concExpiryEv)
		m.concExpiryEv = sim.Handle{}
		m.concurrent = true
		m.rssi1MW = m.energyMW()
		if m.trace.Enabled() {
			e := trace.Event{Kind: trace.KindETJoin, Src: m.concSrc, Dst: m.concDst, Reason: "energy_rise"}
			if len(m.queue) > 0 {
				e.OurDst = m.queue[0].Dst
			}
			m.trace.Emit(e)
		}
		if m.st == phaseAccess {
			m.scheduleDefer()
		}
	} else if m.concurrent && m.st == phaseAccess &&
		m.energyMW()-m.rssi1MW >= m.etDeltaMW {
		// RSSI2 ≥ RSSI1 + T'cs: another exposed terminal began transmitting;
		// abandon the opportunity and fall back to normal deferral. The rule
		// only applies while counting down — outside the access phase an
		// energy step is our own ACK exchange, not a competing exposed
		// terminal.
		m.stat.Inc("et.abandon")
		if m.trace.Enabled() {
			e := trace.Event{Kind: trace.KindETAbandon, Src: m.concSrc, Dst: m.concDst, Reason: "rssi_step"}
			if len(m.queue) > 0 {
				e.OurDst = m.queue[0].Dst
			}
			m.trace.Emit(e)
		}
		m.concurrent = false
	}

	newBusy := aggDBm >= m.cfg.CCAThresholdDBm
	if newBusy == m.busy {
		// Still re-evaluate freeze/resume: concurrency state may have changed.
		m.reevaluateAccess()
		return
	}
	m.busy = newBusy
	if !newBusy {
		// The ongoing transmission left the air; concurrency mode ends.
		// concPending survives (it is bounded by its expiry timer) so the
		// idle instant between a discovery header and its data frame does
		// not erase the opportunity.
		m.concurrent = false
	}
	m.reevaluateAccess()
}

// reevaluateAccess freezes or resumes the backoff machinery according to the
// current channel state.
func (m *MAC) reevaluateAccess() {
	if m.st != phaseAccess {
		return
	}
	if m.channelClear() {
		if !m.difsEv.Active() && !m.slotEv.Active() {
			m.scheduleDefer()
		}
		return
	}
	if (m.difsEv.Active() || m.slotEv.Active()) && m.trace.Enabled() && len(m.queue) > 0 {
		e := trace.FrameEvent(trace.KindBackoffFreeze, m.queue[0])
		e.Slots = m.counter
		m.trace.Emit(e)
	}
	m.cancelAccessTimers()
}
