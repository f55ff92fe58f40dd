package trace_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/trace"
)

func runTracedScenario(t *testing.T, sink trace.Sink, energy bool) {
	t.Helper()
	top := topology.ETSweep(30)
	opts := netsim.TestbedOptions()
	opts.Protocol = netsim.ProtocolDCF
	opts.Seed = 1
	opts.Duration = 200 * time.Millisecond
	n, err := netsim.Build(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	trace.InstrumentMedium(n.Eng, n.Medium, sink, energy)
	n.Run()
}

func TestBufferCollectsEvents(t *testing.T) {
	var buf trace.Buffer
	runTracedScenario(t, &buf, false)
	if len(buf.Events) == 0 {
		t.Fatal("no events recorded")
	}
	var rx, tx int
	for _, e := range buf.Events {
		switch e.Kind {
		case "rx":
			rx++
		case "txdone":
			tx++
		case "energy":
			t.Fatal("energy event recorded while disabled")
		}
		if e.AtMicros < 0 || e.AtMicros > 200_000 {
			t.Fatalf("event outside run window: %+v", e)
		}
	}
	if rx == 0 || tx == 0 {
		t.Errorf("rx=%d tx=%d", rx, tx)
	}
}

func TestTracingDoesNotPerturbSimulation(t *testing.T) {
	// The tracer must be a pure observer: goodput with and without it is
	// bit-identical.
	run := func(traced bool) float64 {
		top := topology.ETSweep(30)
		opts := netsim.TestbedOptions()
		opts.Protocol = netsim.ProtocolComap
		opts.Seed = 9
		opts.Duration = 500 * time.Millisecond
		n, err := netsim.Build(top, opts)
		if err != nil {
			t.Fatal(err)
		}
		if traced {
			trace.InstrumentMedium(n.Eng, n.Medium, &trace.Buffer{}, true)
		}
		return n.Run().Total()
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("tracing changed the outcome: %v vs %v", a, b)
	}
}

func TestFullInstrumentationDoesNotPerturbSimulation(t *testing.T) {
	// The complete event stream — PHY tracers, channel txstart hook, MAC and
	// CO-MAP decision emitters wired through netsim.Options.Trace — must
	// leave the run bit-identical: same seed, same full netsim.Report, not
	// just the same goodput total. Wall-clock self-profiling is the one
	// legitimately non-deterministic block, so it is zeroed before comparing.
	run := func(sink trace.Sink) []byte {
		top := topology.ETSweep(30)
		opts := netsim.TestbedOptions()
		opts.Protocol = netsim.ProtocolComap
		opts.Seed = 9
		opts.Duration = 500 * time.Millisecond
		opts.Trace = sink
		opts.TraceEnergy = sink != nil
		n, err := netsim.Build(top, opts)
		if err != nil {
			t.Fatal(err)
		}
		res := n.Run()
		rep := n.Report(res)
		rep.Engine.WallSec = 0
		rep.Engine.EventsPerSec = 0
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := run(nil), run(&trace.Buffer{}); !bytes.Equal(a, b) {
		t.Errorf("instrumentation changed the report:\nuntraced: %s\ntraced:   %s", a, b)
	}
}

func TestDecisionEventsRecorded(t *testing.T) {
	var buf trace.Buffer
	top := topology.ETSweep(30)
	opts := netsim.TestbedOptions()
	opts.Protocol = netsim.ProtocolComap
	opts.Seed = 2
	opts.Duration = 300 * time.Millisecond
	opts.Trace = &buf
	n, err := netsim.Build(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	kinds := map[string]int{}
	for _, e := range buf.Events {
		kinds[e.Kind]++
	}
	for _, want := range []string{
		trace.KindEnqueue, trace.KindBackoffStart, trace.KindTxAttempt,
		trace.KindTxStart, trace.KindAck,
	} {
		if kinds[want] == 0 {
			t.Errorf("no %q events in CO-MAP run (kinds: %v)", want, kinds)
		}
	}
	if kinds[trace.KindCoGrant]+kinds[trace.KindCoDeny] == 0 {
		t.Errorf("no concurrency verdict events in CO-MAP run (kinds: %v)", kinds)
	}
}

func TestWriterEmitsJSONLines(t *testing.T) {
	var sb strings.Builder
	w := trace.NewWriter(&sb)
	runTracedScenario(t, w, false)
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	if w.Count() == 0 {
		t.Fatal("nothing written")
	}
	lines := 0
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		var e trace.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSON line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if lines != w.Count() {
		t.Errorf("lines=%d count=%d", lines, w.Count())
	}
}

func TestEnergyEventsOptIn(t *testing.T) {
	var buf trace.Buffer
	runTracedScenario(t, &buf, true)
	energy := 0
	for _, e := range buf.Events {
		if e.Kind == "energy" {
			energy++
		}
	}
	if energy == 0 {
		t.Error("energy tracing enabled but no events recorded")
	}
}

func TestEventString(t *testing.T) {
	events := []trace.Event{
		{Kind: "rx", AtMicros: 10, Node: 1, FrameKind: "DATA", Src: 2, Dst: 1,
			Seq: trace.SeqNum(3), OK: trace.Bool(true), RSSIDBm: trace.Float(-70)},
		{Kind: "txdone", AtMicros: 20, Node: 2, FrameKind: "ACK", Src: 2, Dst: 1},
		{Kind: "energy", AtMicros: 30, Node: 1, RSSIDBm: trace.Float(-81)},
		{Kind: "txstart", AtMicros: 40, Node: 2, FrameKind: "DATA", Src: 2, Dst: 1,
			Rate: "1M", DurUs: 8300},
		{Kind: "mac.drop", AtMicros: 50, Node: 2, FrameKind: "DATA", Src: 2, Dst: 1,
			Reason: "retry_limit"},
		{Kind: "co.deny", AtMicros: 60, Node: 3, Src: 1, Dst: 2, OurDst: 4,
			Reason: "validated"},
	}
	for _, e := range events {
		if e.String() == "" {
			t.Errorf("empty String for %+v", e)
		}
	}
	if !strings.Contains(events[0].String(), "RX DATA") {
		t.Errorf("rx string = %q", events[0].String())
	}
	if !strings.Contains(events[4].String(), "retry_limit") {
		t.Errorf("drop string = %q", events[4].String())
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	// Seq 0, OK=false and RSSI 0 must all survive encode→decode explicitly.
	e := trace.Event{
		Kind: "rx", AtMicros: 1, Node: 2, FrameKind: "DATA", Src: 3, Dst: 2,
		Seq: trace.SeqNum(0), OK: trace.Bool(false), RSSIDBm: trace.Float(0),
	}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"seq":0`, `"ok":false`, `"rssi_dbm":0`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("encoded event missing %s: %s", want, b)
		}
	}
	var got trace.Event
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Seq == nil || got.SeqNo() != 0 {
		t.Errorf("seq 0 lost: %+v", got)
	}
	if got.Decoded() {
		t.Errorf("ok=false read back as decoded: %+v", got)
	}
	if rssi, ok := got.RSSI(); !ok || rssi != 0 {
		t.Errorf("rssi 0 lost: %v %v", rssi, ok)
	}
}

func TestEventBackwardCompatDecoding(t *testing.T) {
	// Traces written before the explicit encoding omitted "ok" on failed
	// decodes and "seq" on seq-0 frames; the accessors must read those the
	// same way the old analyzer did.
	var e trace.Event
	if err := json.Unmarshal([]byte(
		`{"at_us":5,"node":1,"kind":"rx","frame":"DATA","src":2,"dst":1}`,
	), &e); err != nil {
		t.Fatal(err)
	}
	if e.Decoded() {
		t.Error("absent ok decoded as success")
	}
	if e.Seq != nil || e.SeqNo() != 0 {
		t.Errorf("absent seq misread: %+v", e)
	}
	if _, ok := e.RSSI(); ok {
		t.Error("absent rssi misread as present")
	}
}

func TestNilEmitterIsNoOp(t *testing.T) {
	var em *trace.Emitter
	if em.Enabled() {
		t.Error("nil emitter reports enabled")
	}
	em.Emit(trace.Event{Kind: "mac.tx"}) // must not panic
	if got := trace.NewEmitter(nil, 1, nil); got != nil {
		t.Errorf("NewEmitter(nil sink) = %v, want nil", got)
	}
}
