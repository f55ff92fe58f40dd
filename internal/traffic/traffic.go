// Package traffic drives application load over plain-DCF stations: saturated
// sources (the paper's backlogged Iperf TCP senders), constant-bit-rate
// sources (the 3 Mbps CBR streams of Table I) and Poisson sources, plus a
// measuring sink with standard 802.11 duplicate suppression.
//
// CO-MAP stations use comap.Endpoint instead, which integrates the
// selective-repeat link layer; this package serves the baseline protocol.
package traffic

import (
	"time"

	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/sim"
	"repro/internal/stats"
)

// queueTarget is how many frames a source keeps in the MAC queue.
const queueTarget = 2

// creditInterval is the CBR token-refill period.
const creditInterval = 10 * time.Millisecond

// source is one outgoing flow of a Peer.
type source struct {
	dst       frame.NodeID
	payloadFn func() int
	seq       uint16
	// credit is the CBR byte bucket; nil = saturated.
	credit   *float64
	rateBps  float64
	creditEv sim.Handle
	tick     func() // the credit timer's callback, bound on first use
	active   bool
}

// Peer binds traffic sources and a measuring sink to one MAC instance (a
// station can be either or both — APs with downlink traffic are both, and an
// AP carries one source per associated client).
type Peer struct {
	eng *sim.Engine
	m   *mac.MAC

	sources []*source
	rr      int

	// sink state: last sequence number per source for duplicate rejection.
	lastSeq map[frame.NodeID]uint16
	hasLast map[frame.NodeID]bool
	bySrc   map[frame.NodeID]*stats.GoodputMeter
}

// NewPeer wires a peer onto the MAC, installing its hooks.
func NewPeer(eng *sim.Engine, m *mac.MAC) *Peer {
	p := &Peer{
		eng:     eng,
		m:       m,
		lastSeq: make(map[frame.NodeID]uint16),
		hasLast: make(map[frame.NodeID]bool),
		bySrc:   make(map[frame.NodeID]*stats.GoodputMeter),
	}
	m.SetHooks(mac.Hooks{
		OnSendComplete: func(frame.Frame, bool) { p.pump() },
		OnReceive:      p.onReceive,
	})
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

// StartSaturated begins a backlogged stream towards dst; payloadFn is
// consulted per frame. Multiple streams to distinct destinations share the
// MAC round-robin.
func (p *Peer) StartSaturated(dst frame.NodeID, payloadFn func() int) {
	p.sources = append(p.sources, &source{dst: dst, payloadFn: payloadFn, active: true})
	p.pump()
}

// StartCBR begins a constant-bit-rate stream offering bitsPerSec towards
// dst.
func (p *Peer) StartCBR(dst frame.NodeID, payloadFn func() int, bitsPerSec float64) {
	credit := 0.0
	s := &source{dst: dst, payloadFn: payloadFn, credit: &credit, rateBps: bitsPerSec, active: true}
	p.sources = append(p.sources, s)
	p.scheduleCredit(s)
	p.pump()
}

func (p *Peer) scheduleCredit(s *source) {
	if s.tick == nil {
		s.tick = func() {
			*s.credit += s.rateBps / 8 * creditInterval.Seconds()
			if bucketCap := s.rateBps / 8; *s.credit > bucketCap {
				*s.credit = bucketCap
			}
			p.pump()
			p.scheduleCredit(s)
		}
	}
	s.creditEv = p.eng.AfterTagged(creditInterval, sim.TagTraffic, int32(p.m.ID()), s.tick)
}

// Stop halts all sources; queued frames drain normally.
func (p *Peer) Stop() {
	for _, s := range p.sources {
		p.pauseSource(s)
	}
}

func (p *Peer) pauseSource(s *source) {
	s.active = false
	if s.creditEv.Active() {
		p.eng.Cancel(s.creditEv)
		s.creditEv = sim.Handle{}
	}
}

func (p *Peer) resumeSource(s *source) (resumed bool) {
	if s.active {
		return false
	}
	s.active = true
	if s.credit != nil && !s.creditEv.Active() {
		p.scheduleCredit(s)
	}
	return true
}

// Pause suspends all sources so Resume can continue them — the station-churn
// "leave" transition (Stop with a way back).
func (p *Peer) Pause() { p.Stop() }

// Resume reactivates every paused source (the churn "re-join").
func (p *Peer) Resume() {
	resumed := false
	for _, s := range p.sources {
		resumed = p.resumeSource(s) || resumed
	}
	if resumed {
		p.pump()
	}
}

// PauseTo suspends only the sources towards dst (a serving station stops
// feeding a departed peer).
func (p *Peer) PauseTo(dst frame.NodeID) {
	for _, s := range p.sources {
		if s.dst == dst {
			p.pauseSource(s)
		}
	}
}

// ResumeTo reactivates the sources towards dst after it re-joined.
func (p *Peer) ResumeTo(dst frame.NodeID) {
	resumed := false
	for _, s := range p.sources {
		if s.dst == dst {
			resumed = p.resumeSource(s) || resumed
		}
	}
	if resumed {
		p.pump()
	}
}

func (p *Peer) pump() {
	if len(p.sources) == 0 {
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

func (p *Peer) nextFrame() (frame.Frame, bool) {
	for i := 0; i < len(p.sources); i++ {
		s := p.sources[(p.rr+i)%len(p.sources)]
		if !s.active {
			continue
		}
		payload := s.payloadFn()
		if s.credit != nil && *s.credit < float64(payload) {
			continue
		}
		if s.credit != nil {
			*s.credit -= float64(payload)
		}
		f := frame.Frame{Kind: frame.Data, Dst: s.dst, Seq: s.seq, PayloadBytes: payload}
		s.seq++
		p.rr = (p.rr + i + 1) % len(p.sources)
		return f, true
	}
	return frame.Frame{}, false
}

// onReceive implements the sink with 802.11-style duplicate rejection: a
// retransmitted frame whose (src, seq) matches the last reception from that
// source is dropped.
func (p *Peer) onReceive(f frame.Frame, _ float64) {
	if f.Retry && p.hasLast[f.Src] && p.lastSeq[f.Src] == f.Seq {
		return
	}
	p.lastSeq[f.Src] = f.Seq
	p.hasLast[f.Src] = true
	p.DeliveredFrom(f.Src).AddPayload(f.PayloadBytes)
}
