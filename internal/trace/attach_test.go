package trace_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// spyListener records every indication so tests can verify the tracer chains
// to the wrapped listener.
type spyListener struct {
	rx     []frame.Frame
	rxOK   []bool
	txdone []frame.Frame
	energy []float64
}

func (s *spyListener) FrameReceived(f frame.Frame, ok bool, rssi float64) {
	s.rx = append(s.rx, f)
	s.rxOK = append(s.rxOK, ok)
}
func (s *spyListener) TransmitDone(f frame.Frame) { s.txdone = append(s.txdone, f) }
func (s *spyListener) EnergyChanged(agg float64)  { s.energy = append(s.energy, agg) }

var _ channel.Listener = (*spyListener)(nil)

func TestTracerChainsInnerListener(t *testing.T) {
	eng := sim.New(1)
	inner := &spyListener{}
	var buf trace.Buffer
	tr := trace.New(eng, 7, inner, &buf, true)

	data := frame.Frame{Kind: frame.Data, Src: 2, Dst: 7, Seq: 5, PayloadBytes: 100}
	ack := frame.Frame{Kind: frame.Ack, Src: 7, Dst: 2}
	tr.FrameReceived(data, true, -60)
	tr.FrameReceived(data, false, -90)
	tr.TransmitDone(ack)
	tr.EnergyChanged(-75)

	if len(inner.rx) != 2 || inner.rx[0] != data || !inner.rxOK[0] || inner.rxOK[1] {
		t.Errorf("inner FrameReceived chain broken: %+v ok=%v", inner.rx, inner.rxOK)
	}
	if len(inner.txdone) != 1 || inner.txdone[0] != ack {
		t.Errorf("inner TransmitDone chain broken: %+v", inner.txdone)
	}
	if len(inner.energy) != 1 || inner.energy[0] != -75 {
		t.Errorf("inner EnergyChanged chain broken: %+v", inner.energy)
	}

	// The sink mirrors exactly what the inner listener saw.
	if len(buf.Events) != 4 {
		t.Fatalf("sink saw %d events, want 4", len(buf.Events))
	}
	if e := buf.Events[0]; e.Kind != "rx" || e.Node != 7 || e.Src != 2 || e.SeqNo() != 5 || !e.Decoded() {
		t.Errorf("mirrored rx event wrong: %+v", e)
	}
	if e := buf.Events[1]; e.Decoded() {
		t.Errorf("corrupted rx mirrored as ok: %+v", e)
	}
	if e := buf.Events[2]; e.Kind != "txdone" || e.FrameKind != frame.Ack.String() {
		t.Errorf("mirrored txdone event wrong: %+v", e)
	}
	if e := buf.Events[3]; e.Kind != "energy" || e.RSSIDBm == nil || *e.RSSIDBm != -75 {
		t.Errorf("mirrored energy event wrong: %+v", e)
	}
}

func TestTracerToleratesNilInner(t *testing.T) {
	eng := sim.New(1)
	var buf trace.Buffer
	tr := trace.New(eng, 1, nil, &buf, true)
	tr.FrameReceived(frame.Frame{Kind: frame.Data}, true, -60)
	tr.TransmitDone(frame.Frame{Kind: frame.Ack})
	tr.EnergyChanged(-80)
	if len(buf.Events) != 3 {
		t.Errorf("sink saw %d events, want 3", len(buf.Events))
	}
}

func TestAttachKeepsProtocolRunning(t *testing.T) {
	// InstrumentMedium interposes on the MACs' own listeners; if chaining
	// were broken the stations would never decode a frame and goodput would
	// be zero.
	top := topology.ETSweep(30)
	opts := netsim.TestbedOptions()
	opts.Protocol = netsim.ProtocolDCF
	opts.Seed = 4
	opts.Duration = 300 * time.Millisecond
	n, err := netsim.Build(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf trace.Buffer
	trace.InstrumentMedium(n.Eng, n.Medium, &buf, false)
	res := n.Run()
	if res.Total() <= 0 {
		t.Error("goodput zero: tracer did not chain to the MAC listeners")
	}
	nodes := map[frame.NodeID]bool{}
	for _, e := range buf.Events {
		nodes[e.Node] = true
	}
	if len(nodes) < 2 {
		t.Errorf("events from %d nodes, want at least sender and receiver", len(nodes))
	}
}

func TestInstrumentMediumRecordsTxStarts(t *testing.T) {
	top := topology.ETSweep(30)
	opts := netsim.TestbedOptions()
	opts.Protocol = netsim.ProtocolDCF
	opts.Seed = 4
	opts.Duration = 300 * time.Millisecond
	n, err := netsim.Build(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf trace.Buffer
	trace.InstrumentMedium(n.Eng, n.Medium, &buf, false)
	n.Run()
	starts, dones := 0, 0
	for _, e := range buf.Events {
		switch e.Kind {
		case trace.KindTxStart:
			starts++
			if e.DurUs <= 0 {
				t.Fatalf("txstart without airtime: %+v", e)
			}
			if e.Rate == "" {
				t.Fatalf("txstart without rate: %+v", e)
			}
		case trace.KindTxDone:
			dones++
		}
	}
	if starts == 0 {
		t.Fatal("no txstart events recorded")
	}
	// Every completed transmission pairs a start with a done; at most one
	// frame per node can still be on the air when the run ends.
	if dones > starts || starts-dones > len(top.Nodes) {
		t.Errorf("txstart=%d txdone=%d, want matched pairs modulo in-flight frames",
			starts, dones)
	}
}

// failAfter is an io.Writer that fails every write past the first n bytes.
type failAfter struct {
	n       int
	written int
}

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		return 0, errDiskFull
	}
	f.written += len(p)
	return len(p), nil
}

func TestWriterSurfacesWriteErrors(t *testing.T) {
	w := trace.NewWriter(&failAfter{n: 100})
	e := trace.Event{Kind: "rx", Node: 1, FrameKind: "DATA"}
	for i := 0; i < 50; i++ {
		w.Record(e)
	}
	if w.Err() == nil {
		t.Fatal("Err() nil after failing writes")
	}
	if !errors.Is(w.Err(), errDiskFull) {
		t.Errorf("Err() = %v, want wrapped disk full", w.Err())
	}
	if w.Count() >= 50 {
		t.Errorf("Count() = %d, failed writes were counted", w.Count())
	}
	// The first error sticks: later records must not clobber it or count.
	before := w.Count()
	w.Record(e)
	if w.Count() != before || !errors.Is(w.Err(), errDiskFull) {
		t.Error("Writer kept going after its first error")
	}
}
