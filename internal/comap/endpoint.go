package comap

import (
	"time"

	"repro/internal/arq"
	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

// pipelineDepth is how many frames the endpoint keeps in the MAC queue so
// the selective-repeat window stays busy without hoarding the queue.
const pipelineDepth = 2

// creditInterval is the CBR token-refill period.
const creditInterval = 10 * time.Millisecond

// stream is one outgoing selective-repeat flow.
type stream struct {
	dst       frame.NodeID
	send      *arq.Sender
	payloadFn func() int
	// credit is the CBR byte bucket; nil means saturated.
	credit     *float64
	creditRate float64 // bytes per second
	creditEv   sim.Handle
	tick       func() // the credit timer's callback, bound on first use
	active     bool
}

// Endpoint is CO-MAP's link layer on one station: it pumps outgoing
// selective-repeat streams into the MAC (paper §IV-C4) and
// deduplicates/acknowledges incoming streams with bitmap SR-ACKs. An
// endpoint can carry several streams (APs serve every associated client) and
// be sender and receiver at once.
type Endpoint struct {
	eng    *sim.Engine
	m      *mac.MAC
	window int

	streams []*stream
	rr      int // round-robin cursor over streams

	// receiver side
	recv      map[frame.NodeID]*arq.Receiver
	bySrc     map[frame.NodeID]*stats.GoodputMeter
	onControl func(f frame.Frame, rssiDBm float64)

	metrics *metrics.Registry
}

// NewEndpoint wires an endpoint onto the MAC (installing its hooks) with the
// given selective-repeat window size (0 = arq.DefaultWindow).
func NewEndpoint(eng *sim.Engine, m *mac.MAC, window int) *Endpoint {
	e := &Endpoint{
		eng:    eng,
		m:      m,
		window: window,
		recv:   make(map[frame.NodeID]*arq.Receiver),
		bySrc:  make(map[frame.NodeID]*stats.GoodputMeter),
	}
	m.SetHooks(mac.Hooks{
		OnSendComplete: func(frame.Frame, bool) { e.pump() },
		OnReceive:      e.onReceive,
		OnAckInfo:      e.onAckInfo,
		MakeAck:        e.makeAck,
		OnControl: func(f frame.Frame, rssi float64) {
			if e.onControl != nil {
				e.onControl(f, rssi)
			}
		},
	})
	return e
}

// OnControl registers an observer for decoded control frames (discovery
// headers, location beacons); the CO-MAP agent uses it to track active
// links.
func (e *Endpoint) OnControl(fn func(f frame.Frame, rssiDBm float64)) { e.onControl = fn }

// SetMetrics attaches a telemetry registry: the ARQ senders of streams
// started afterwards record their window occupancy and delivery latencies
// into it (see arq.Sender.Instrument). Call before wiring traffic.
func (e *Endpoint) SetMetrics(reg *metrics.Registry) { e.metrics = reg }

// instrument wires the endpoint's registry into a freshly created sender.
func (e *Endpoint) instrument(s *arq.Sender) *arq.Sender {
	if e.metrics != nil {
		s.Instrument(e.metrics, e.eng.Now)
	}
	return s
}

// SenderTo returns the ARQ sender for the stream towards dst, or nil.
func (e *Endpoint) SenderTo(dst frame.NodeID) *arq.Sender {
	for _, s := range e.streams {
		if s.dst == dst {
			return s.send
		}
	}
	return nil
}

// DeliveredFrom returns the per-source unique-payload meter (created on
// first use).
func (e *Endpoint) DeliveredFrom(src frame.NodeID) *stats.GoodputMeter {
	g, ok := e.bySrc[src]
	if !ok {
		g = &stats.GoodputMeter{}
		e.bySrc[src] = g
	}
	return g
}

// StartStream begins a saturated stream towards dst. payloadFn is consulted
// for every newly minted frame, so CO-MAP's packet-size adaptation takes
// effect immediately. Multiple streams to distinct destinations share the
// MAC round-robin.
func (e *Endpoint) StartStream(dst frame.NodeID, payloadFn func() int) {
	e.streams = append(e.streams, &stream{
		dst:       dst,
		send:      e.instrument(arq.NewSender(e.window, 0)),
		payloadFn: payloadFn,
		active:    true,
	})
	e.pump()
}

// StartCBRStream begins a rate-limited stream towards dst offering
// bitsPerSec of new application payload (retransmissions ride for free: they
// consume MAC airtime but no new application data).
func (e *Endpoint) StartCBRStream(dst frame.NodeID, payloadFn func() int, bitsPerSec float64) {
	credit := 0.0
	s := &stream{
		dst:        dst,
		send:       e.instrument(arq.NewSender(e.window, 0)),
		payloadFn:  payloadFn,
		credit:     &credit,
		creditRate: bitsPerSec / 8,
		active:     true,
	}
	e.streams = append(e.streams, s)
	e.scheduleCredit(s)
	e.pump()
}

func (e *Endpoint) scheduleCredit(s *stream) {
	if s.tick == nil {
		s.tick = func() {
			*s.credit += s.creditRate * creditInterval.Seconds()
			// Cap the bucket at one second of traffic to bound bursts.
			if bucketCap := s.creditRate; *s.credit > bucketCap {
				*s.credit = bucketCap
			}
			e.pump()
			e.scheduleCredit(s)
		}
	}
	s.creditEv = e.eng.AfterTagged(creditInterval, sim.TagComap, int32(e.m.ID()), s.tick)
}

// StopStream halts all outgoing streams (pending frames drain normally).
func (e *Endpoint) StopStream() {
	for _, s := range e.streams {
		e.pauseStream(s)
	}
}

func (e *Endpoint) pauseStream(s *stream) {
	s.active = false
	if s.creditEv.Active() {
		e.eng.Cancel(s.creditEv)
		s.creditEv = sim.Handle{}
	}
}

func (e *Endpoint) resumeStream(s *stream) (resumed bool) {
	if s.active {
		return false
	}
	s.active = true
	if s.credit != nil && !s.creditEv.Active() {
		e.scheduleCredit(s)
	}
	return true
}

// PauseStreams suspends all outgoing streams, keeping their ARQ state so
// ResumeStreams can continue them — the station-churn "leave" transition.
func (e *Endpoint) PauseStreams() { e.StopStream() }

// ResumeStreams reactivates every paused stream (the churn "re-join").
func (e *Endpoint) ResumeStreams() {
	resumed := false
	for _, s := range e.streams {
		resumed = e.resumeStream(s) || resumed
	}
	if resumed {
		e.pump()
	}
}

// PauseStreamsTo suspends only the streams towards dst — the sender-side
// half of dst's churn: a serving station stops feeding a departed peer.
func (e *Endpoint) PauseStreamsTo(dst frame.NodeID) {
	for _, s := range e.streams {
		if s.dst == dst {
			e.pauseStream(s)
		}
	}
}

// ResumeStreamsTo reactivates the streams towards dst after it re-joined.
func (e *Endpoint) ResumeStreamsTo(dst frame.NodeID) {
	resumed := false
	for _, s := range e.streams {
		if s.dst == dst {
			resumed = e.resumeStream(s) || resumed
		}
	}
	if resumed {
		e.pump()
	}
}

// pump keeps the MAC queue primed with frames, round-robining across the
// active streams.
func (e *Endpoint) pump() {
	if len(e.streams) == 0 {
		return
	}
	for e.m.QueueLen() < pipelineDepth {
		f, ok := e.nextFrame()
		if !ok {
			return
		}
		if err := e.m.Enqueue(f); err != nil {
			return
		}
	}
}

// nextFrame picks the next frame across streams, starting at the round-robin
// cursor.
func (e *Endpoint) nextFrame() (frame.Frame, bool) {
	for i := 0; i < len(e.streams); i++ {
		s := e.streams[(e.rr+i)%len(e.streams)]
		if !s.active {
			continue
		}
		if f, ok := e.frameFrom(s); ok {
			e.rr = (e.rr + i + 1) % len(e.streams)
			return f, true
		}
	}
	return frame.Frame{}, false
}

func (e *Endpoint) frameFrom(s *stream) (frame.Frame, bool) {
	payload := s.payloadFn()
	if s.credit == nil {
		seq, pl, retry := s.send.Next(payload)
		return frame.Frame{Kind: frame.Data, Dst: s.dst, Seq: seq, PayloadBytes: pl, Retry: retry}, true
	}
	// CBR: mint new frames only when credit allows; retransmit otherwise.
	if *s.credit >= float64(payload) && s.send.CanSendNew() {
		if seq, ok := s.send.NextNew(payload); ok {
			*s.credit -= float64(payload)
			return frame.Frame{Kind: frame.Data, Dst: s.dst, Seq: seq, PayloadBytes: payload}, true
		}
	}
	if seq, pl, ok := s.send.NextRetransmit(); ok {
		return frame.Frame{Kind: frame.Data, Dst: s.dst, Seq: seq, PayloadBytes: pl, Retry: true}, true
	}
	return frame.Frame{}, false
}

func (e *Endpoint) onReceive(f frame.Frame, _ float64) {
	r, ok := e.recv[f.Src]
	if !ok {
		r = arq.NewReceiver()
		e.recv[f.Src] = r
	}
	if r.OnData(f.Seq) {
		e.DeliveredFrom(f.Src).AddPayload(f.PayloadBytes)
	}
}

func (e *Endpoint) onAckInfo(f frame.Frame) {
	if f.Kind != frame.SRAck {
		return
	}
	if s := e.SenderTo(f.Src); s != nil {
		s.OnAck(f.Seq, f.Bitmap)
	}
}

// makeAck builds the selective-repeat acknowledgement for a received data
// frame: the highest received sequence number plus the 32-frame bitmap.
func (e *Endpoint) makeAck(data frame.Frame) (frame.Frame, bool) {
	r, ok := e.recv[data.Src]
	if !ok {
		return frame.Frame{Kind: frame.Ack, Src: e.m.ID(), Dst: data.Src, Seq: data.Seq}, true
	}
	// Anchor the ACK at the just-received frame so that even retransmitted
	// holes far behind the highest sequence number are acknowledged.
	ackSeq, bitmap := r.AckFor(data.Seq)
	return frame.Frame{Kind: frame.SRAck, Src: e.m.ID(), Dst: data.Src, Seq: ackSeq, Bitmap: bitmap}, true
}
