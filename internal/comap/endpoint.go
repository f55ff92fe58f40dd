package comap

import (
	"repro/internal/arq"
	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Endpoint is CO-MAP's link layer on one station: the shared stream driver
// (traffic.Peer) with selective-repeat numbering (paper §IV-C4) on every
// outgoing stream, and a sink that deduplicates and acknowledges incoming
// streams with bitmap SR-ACKs. An endpoint can carry several streams (APs
// serve every associated client) and be sender and receiver at once.
type Endpoint struct {
	*traffic.Peer

	eng *sim.Engine
	m   *mac.MAC

	recv      map[frame.NodeID]*arq.Receiver
	onControl func(f frame.Frame, rssiDBm float64)

	metrics *metrics.Registry
}

// NewEndpoint wires an endpoint onto the MAC, installing its hooks. Its
// streams use arq.DefaultWindow and their CBR credit ticks are charged to
// sim.TagComap.
func NewEndpoint(eng *sim.Engine, m *mac.MAC) *Endpoint {
	e := &Endpoint{
		eng:  eng,
		m:    m,
		recv: make(map[frame.NodeID]*arq.Receiver),
	}
	e.Peer = traffic.NewLinkPeer(eng, m, e, sim.TagComap, mac.Hooks{
		OnAckInfo: e.onAckInfo,
		MakeAck:   e.makeAck,
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

// NewSender implements traffic.Link: a selective-repeat sender per stream.
func (e *Endpoint) NewSender() traffic.Sender {
	s := arq.NewSender(arq.DefaultWindow, 0)
	if e.metrics != nil {
		s.Instrument(e.metrics, e.eng.Now)
	}
	return s
}

// Accept implements traffic.Link: the per-source selective-repeat receiver
// decides whether a data frame is new.
func (e *Endpoint) Accept(f frame.Frame) bool {
	r, ok := e.recv[f.Src]
	if !ok {
		r = arq.NewReceiver()
		e.recv[f.Src] = r
	}
	return r.OnData(f.Seq)
}

func (e *Endpoint) onAckInfo(f frame.Frame) {
	if f.Kind != frame.SRAck {
		return
	}
	if s, ok := e.SenderTo(f.Src).(*arq.Sender); ok {
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
