// Package traffic drives application load over a station's MAC for both
// protocols: saturated streams (the paper's backlogged Iperf TCP senders)
// and constant-bit-rate streams (the 3 Mbps CBR streams of Table I), plus a
// measuring sink with per-source goodput meters.
//
// One Peer schedules every stream the same way under DCF and CO-MAP. A Link
// supplies what differs: how a stream numbers its frames and how the sink
// rejects duplicates. Plain DCF (NewPeer) counts sequence numbers and leaves
// retransmission to the MAC; CO-MAP's endpoint plugs in its selective-repeat
// layer through NewLinkPeer.
package traffic

import (
	"time"

	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/sim"
	"repro/internal/stats"
)

// queueTarget is how many frames a peer keeps in the MAC queue.
const queueTarget = 2

// creditInterval is the CBR token-refill period.
const creditInterval = 10 * time.Millisecond

// Sender numbers the frames of one stream.
type Sender interface {
	// Next returns the stream's next frame: a newly minted sequence number
	// carrying newPayload bytes when mint is set and the sender has room,
	// otherwise a frame to send again (retry). ok is false when there is
	// neither.
	Next(newPayload int, mint bool) (seq uint16, payload int, retry, ok bool)
}

// Link is the protocol-specific half of a Peer.
type Link interface {
	// NewSender returns the numbering of a new stream.
	NewSender() Sender
	// Accept reports whether a received data frame is a first delivery
	// rather than a duplicate.
	Accept(f frame.Frame) bool
}

// stream is one outgoing flow of a Peer.
type stream struct {
	dst       frame.NodeID
	send      Sender
	payloadFn func() int
	// byteRate is the CBR offered load in bytes per second; 0 = saturated.
	byteRate float64
	credit   float64 // the CBR byte bucket
	creditEv sim.Handle
	tick     func() // the credit timer's callback, bound on first use
	active   bool
	minted   int64 // new (non-retry) frames handed to the MAC
}

// Peer binds outgoing streams and a measuring sink to one MAC instance (a
// station can be either or both — APs with downlink traffic are both, and an
// AP carries one stream per associated client).
type Peer struct {
	eng  *sim.Engine
	m    *mac.MAC
	link Link
	tag  sim.Tag // charged for the CBR credit ticks

	streams []*stream
	rr      int // round-robin cursor over streams

	bySrc map[frame.NodeID]*stats.GoodputMeter
}

// NewPeer wires a plain-DCF peer onto the MAC, installing its hooks.
func NewPeer(eng *sim.Engine, m *mac.MAC) *Peer {
	return NewLinkPeer(eng, m, dcf{last: make(map[frame.NodeID]uint16)}, sim.TagTraffic, mac.Hooks{})
}

// NewLinkPeer wires a peer whose streams and sink follow link onto the MAC.
// hooks carries the link's own MAC callbacks; the peer sets OnSendComplete
// and OnReceive and installs the result. tag labels the CBR credit ticks.
func NewLinkPeer(eng *sim.Engine, m *mac.MAC, link Link, tag sim.Tag, hooks mac.Hooks) *Peer {
	p := &Peer{
		eng:   eng,
		m:     m,
		link:  link,
		tag:   tag,
		bySrc: make(map[frame.NodeID]*stats.GoodputMeter),
	}
	hooks.OnSendComplete = func(frame.Frame, bool) { p.pump() }
	hooks.OnReceive = p.onReceive
	m.SetHooks(hooks)
	return p
}

// DeliveredFrom returns the per-source unique-payload meter (created on
// first use).
func (p *Peer) DeliveredFrom(src frame.NodeID) *stats.GoodputMeter {
	g, ok := p.bySrc[src]
	if !ok {
		g = &stats.GoodputMeter{}
		p.bySrc[src] = g
	}
	return g
}

// SenderTo returns the sender of the first stream towards dst, or nil.
func (p *Peer) SenderTo(dst frame.NodeID) Sender {
	for _, s := range p.streams {
		if s.dst == dst {
			return s.send
		}
	}
	return nil
}

// MintedTo returns how many new frames the streams towards dst have handed
// to the MAC: no sink can deliver more unique frames of that flow.
func (p *Peer) MintedTo(dst frame.NodeID) int64 {
	var n int64
	for _, s := range p.streams {
		if s.dst == dst {
			n += s.minted
		}
	}
	return n
}

// Start begins a stream towards dst offering bitsPerSec of new application
// payload, or a saturated (backlogged) stream when bitsPerSec is 0.
// payloadFn is consulted for every frame, so packet-size adaptation takes
// effect immediately. Streams to distinct destinations share the MAC
// round-robin.
func (p *Peer) Start(dst frame.NodeID, payloadFn func() int, bitsPerSec float64) {
	s := &stream{dst: dst, send: p.link.NewSender(), payloadFn: payloadFn, active: true}
	p.streams = append(p.streams, s)
	if bitsPerSec > 0 {
		s.byteRate = bitsPerSec / 8
		p.scheduleCredit(s)
	}
	p.pump()
}

func (p *Peer) scheduleCredit(s *stream) {
	if s.tick == nil {
		s.tick = func() {
			s.credit += s.byteRate * creditInterval.Seconds()
			// Cap the bucket at one second of traffic to bound bursts.
			if bucketCap := s.byteRate; s.credit > bucketCap {
				s.credit = bucketCap
			}
			p.pump()
			p.scheduleCredit(s)
		}
	}
	s.creditEv = p.eng.AfterTagged(creditInterval, p.tag, int32(p.m.ID()), s.tick)
}

func (p *Peer) pauseStream(s *stream) {
	s.active = false
	if s.creditEv.Active() {
		p.eng.Cancel(s.creditEv)
		s.creditEv = sim.Handle{}
	}
}

func (p *Peer) resumeStream(s *stream) (resumed bool) {
	if s.active {
		return false
	}
	s.active = true
	if s.byteRate > 0 && !s.creditEv.Active() {
		p.scheduleCredit(s)
	}
	return true
}

// Pause suspends every stream, keeping its state so Resume can continue
// it — the station-churn "leave" transition. Queued frames drain normally.
func (p *Peer) Pause() { p.PauseTo(frame.Broadcast) }

// Resume reactivates every paused stream (the churn "re-join").
func (p *Peer) Resume() { p.ResumeTo(frame.Broadcast) }

// PauseTo suspends only the streams towards dst — the sender-side half of
// dst's churn: a serving station stops feeding a departed peer.
// frame.Broadcast selects every stream.
func (p *Peer) PauseTo(dst frame.NodeID) {
	for _, s := range p.streams {
		if dst == frame.Broadcast || s.dst == dst {
			p.pauseStream(s)
		}
	}
}

// ResumeTo reactivates the streams towards dst after it re-joined.
// frame.Broadcast selects every stream.
func (p *Peer) ResumeTo(dst frame.NodeID) {
	resumed := false
	for _, s := range p.streams {
		if dst == frame.Broadcast || s.dst == dst {
			resumed = p.resumeStream(s) || resumed
		}
	}
	if resumed {
		p.pump()
	}
}

// pump keeps the MAC queue primed with frames, round-robining across the
// active streams.
func (p *Peer) pump() {
	if len(p.streams) == 0 {
		return
	}
	for p.m.QueueLen() < queueTarget {
		f, ok := p.nextFrame()
		if !ok {
			return
		}
		if err := p.m.Enqueue(f); err != nil {
			return
		}
	}
}

// nextFrame picks the next frame across streams, starting at the round-robin
// cursor.
func (p *Peer) nextFrame() (frame.Frame, bool) {
	for i := 0; i < len(p.streams); i++ {
		s := p.streams[(p.rr+i)%len(p.streams)]
		if !s.active {
			continue
		}
		if f, ok := p.frameFrom(s); ok {
			p.rr = (p.rr + i + 1) % len(p.streams)
			return f, true
		}
	}
	return frame.Frame{}, false
}

// frameFrom asks s's sender for a frame. A CBR stream mints new frames only
// while its credit covers the payload; otherwise it can only retransmit
// (retransmissions consume airtime but no new application data).
func (p *Peer) frameFrom(s *stream) (frame.Frame, bool) {
	payload := s.payloadFn()
	mint := s.byteRate == 0 || s.credit >= float64(payload)
	seq, pl, retry, ok := s.send.Next(payload, mint)
	if !ok {
		return frame.Frame{}, false
	}
	if !retry {
		s.minted++
		if s.byteRate > 0 {
			s.credit -= float64(payload)
		}
	}
	return frame.Frame{Kind: frame.Data, Dst: s.dst, Seq: seq, PayloadBytes: pl, Retry: retry}, true
}

func (p *Peer) onReceive(f frame.Frame, _ float64) {
	if p.link.Accept(f) {
		p.DeliveredFrom(f.Src).AddPayload(f.PayloadBytes)
	}
}

// dcf is the plain 802.11 link: each stream counts its sequence numbers and
// leaves retransmission to the MAC, and the sink drops a retransmitted frame
// whose (source, sequence number) matches the last reception from that
// source.
type dcf struct {
	last map[frame.NodeID]uint16
}

func (dcf) NewSender() Sender { return new(counter) }

func (d dcf) Accept(f frame.Frame) bool {
	if last, ok := d.last[f.Src]; ok && f.Retry && last == f.Seq {
		return false
	}
	d.last[f.Src] = f.Seq
	return true
}

// counter numbers a DCF stream: every frame is new.
type counter struct{ next uint16 }

func (c *counter) Next(newPayload int, mint bool) (uint16, int, bool, bool) {
	if !mint {
		return 0, 0, false, false
	}
	c.next++
	return c.next - 1, newPayload, false, true
}
