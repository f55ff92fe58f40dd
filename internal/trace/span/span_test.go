package span_test

import (
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/trace/span"
)

func dataEvent(kind string, at int64, node, src, dst frame.NodeID, seq uint16) trace.Event {
	return trace.Event{
		AtMicros: at, Node: node, Kind: kind,
		FrameKind: frame.Data.String(), Src: src, Dst: dst,
		Seq: trace.SeqNum(seq), Payload: 1000,
	}
}

func TestBuilderFoldsOneLifecycle(t *testing.T) {
	b := span.NewBuilder()

	enq := dataEvent(trace.KindEnqueue, 100, 1, 1, 2, 0)
	enq.Queue = 1
	b.Add(enq)

	bo := dataEvent(trace.KindBackoffStart, 150, 1, 1, 2, 0)
	bo.CW = 32
	bo.Slots = 5
	b.Add(bo)

	b.Add(dataEvent(trace.KindBackoffFreeze, 200, 1, 1, 2, 0))

	tx := dataEvent(trace.KindTxAttempt, 400, 1, 1, 2, 0)
	tx.Rate = "1M"
	b.Add(tx)

	start := dataEvent(trace.KindTxStart, 400, 1, 1, 2, 0)
	start.Rate = "1M"
	start.DurUs = 8300
	b.Add(start)

	rx := dataEvent(trace.KindRx, 8700, 2, 1, 2, 0)
	rx.OK = trace.Bool(true)
	rx.RSSIDBm = trace.Float(-60)
	b.Add(rx)

	ack := dataEvent(trace.KindAck, 9000, 1, 1, 2, 0)
	ack.Reason = "ack"
	b.Add(ack)

	spans := b.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Outcome != span.OutcomeAcked {
		t.Errorf("outcome = %q", s.Outcome)
	}
	if s.Chain != 0 || s.Seq != 0 || s.Src != 1 || s.Dst != 2 {
		t.Errorf("identity wrong: %+v", s)
	}
	if got := s.QueuedUs(); got != 50 {
		t.Errorf("QueuedUs = %d, want 50", got)
	}
	if got := s.ContendUs(); got != 250 {
		t.Errorf("ContendUs = %d, want 250", got)
	}
	if got := s.InFlightUs(); got != 8600 {
		t.Errorf("InFlightUs = %d, want 8600", got)
	}
	if got := s.TotalUs(); got != 8900 {
		t.Errorf("TotalUs = %d, want 8900", got)
	}
	if got := airUs(s); got != 8300 {
		t.Errorf("attempt airtime = %d us, want 8300", got)
	}
	if s.Freezes != 1 || !s.Delivered() || s.RxOK != 1 || s.DeliveredUs != 8700 {
		t.Errorf("counters wrong: %+v", s)
	}
	if len(s.Attempts) != 1 || s.Attempts[0].AirUs != 8300 || s.Attempts[0].Rate != "1M" {
		t.Errorf("attempts wrong: %+v", s.Attempts)
	}
}

func TestBuilderChainsSeqReuse(t *testing.T) {
	b := span.NewBuilder()
	for i := 0; i < 3; i++ {
		at := int64(i) * 10_000
		b.Add(dataEvent(trace.KindEnqueue, at, 1, 1, 2, 7))
		b.Add(dataEvent(trace.KindTxAttempt, at+100, 1, 1, 2, 7))
		drop := dataEvent(trace.KindDrop, at+500, 1, 1, 2, 7)
		drop.Reason = "no_retransmit"
		b.Add(drop)
	}
	spans := b.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for i, s := range spans {
		if s.Chain != i {
			t.Errorf("span %d chain = %d", i, s.Chain)
		}
		if s.Outcome != span.OutcomeDropped || s.Reason != "no_retransmit" {
			t.Errorf("span %d outcome = %s/%s", i, s.Outcome, s.Reason)
		}
	}
}

func TestBuilderQueueFullRejection(t *testing.T) {
	b := span.NewBuilder()
	drop := dataEvent(trace.KindDrop, 42, 1, 1, 2, 9)
	drop.Reason = "queue_full"
	b.Add(drop)
	spans := b.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Outcome != span.OutcomeDropped || s.Reason != "queue_full" {
		t.Errorf("outcome = %s/%s", s.Outcome, s.Reason)
	}
	if s.TotalUs() != 0 {
		t.Errorf("TotalUs = %d, want 0", s.TotalUs())
	}
}

func TestBuilderRetryAccounting(t *testing.T) {
	b := span.NewBuilder()
	b.Add(dataEvent(trace.KindEnqueue, 0, 1, 1, 2, 3))
	for attempt := 0; attempt < 3; attempt++ {
		at := int64(attempt)*10_000 + 100
		tx := dataEvent(trace.KindTxAttempt, at, 1, 1, 2, 3)
		tx.Retries = attempt
		if attempt > 0 {
			tx.Retry = true
		}
		b.Add(tx)
		start := dataEvent(trace.KindTxStart, at, 1, 1, 2, 3)
		start.DurUs = 8000
		b.Add(start)
		if attempt < 2 {
			to := dataEvent(trace.KindTimeout, at+9000, 1, 1, 2, 3)
			to.Reason = "ack"
			to.Retries = attempt
			b.Add(to)
		}
	}
	ack := dataEvent(trace.KindAck, 29_000, 1, 1, 2, 3)
	ack.Reason = "ack"
	ack.Retries = 2
	b.Add(ack)

	spans := b.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Outcome != span.OutcomeAcked || s.Retries != 2 || s.Timeouts != 2 {
		t.Errorf("outcome=%s retries=%d timeouts=%d", s.Outcome, s.Retries, s.Timeouts)
	}
	if len(s.Attempts) != 3 {
		t.Fatalf("attempts = %d, want 3", len(s.Attempts))
	}
	if got := airUs(s); got != 24_000 {
		t.Errorf("attempt airtime = %d us, want 24000", got)
	}
}

func TestBuilderPendingAtEnd(t *testing.T) {
	b := span.NewBuilder()
	b.Add(dataEvent(trace.KindEnqueue, 0, 1, 1, 2, 1))
	b.Add(dataEvent(trace.KindTxAttempt, 100, 1, 1, 2, 1))
	spans := b.Spans()
	if len(spans) != 1 || spans[0].Outcome != span.OutcomePending {
		t.Fatalf("spans = %+v, want one pending", spans)
	}
	if spans[0].TotalUs() != -1 {
		t.Errorf("TotalUs = %d, want -1 for pending", spans[0].TotalUs())
	}
}

func TestBuilderIgnoresForeignObservations(t *testing.T) {
	b := span.NewBuilder()
	b.Add(dataEvent(trace.KindEnqueue, 0, 1, 1, 2, 1))
	// Node 3 overhears the frame: must not count as a delivery.
	rx := dataEvent(trace.KindRx, 500, 3, 1, 2, 1)
	rx.OK = trace.Bool(true)
	b.Add(rx)
	// A non-data frame with the same identity must not disturb the span.
	hdr := dataEvent(trace.KindAck, 600, 1, 1, 2, 1)
	hdr.FrameKind = "BEACON"
	b.Add(hdr)
	spans := b.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0].RxOK != 0 || spans[0].Outcome != span.OutcomePending {
		t.Errorf("foreign events leaked into span: %+v", spans[0])
	}
}

func TestSpansFromLiveRun(t *testing.T) {
	// Attach the builder directly as the run's sink: every completed span
	// must be internally consistent, and delivered payload must reconcile
	// with the scenario's goodput.
	top := topology.ETSweep(30)
	opts := netsim.TestbedOptions()
	opts.Protocol = netsim.ProtocolComap
	opts.Seed = 3
	opts.Duration = 500 * time.Millisecond
	b := span.NewBuilder()
	opts.Trace = b
	n, err := netsim.Build(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := n.Run()

	spans := b.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans from live run")
	}
	acked, delivered := 0, int64(0)
	for _, s := range spans {
		if s.Outcome == span.OutcomeAcked {
			acked++
			if s.TotalUs() < 0 {
				t.Fatalf("acked span without total time: %+v", s)
			}
			if s.QueuedUs() < 0 || s.ContendUs() < 0 || s.InFlightUs() < 0 {
				t.Fatalf("acked span with unobserved phase: %+v", s)
			}
			if len(s.Attempts) == 0 {
				t.Fatalf("acked span without attempts: %+v", s)
			}
		}
		if s.Delivered() {
			delivered += int64(s.Payload)
		}
	}
	if acked == 0 {
		t.Fatal("no acked spans in a healthy run")
	}
	// Goodput counts deliveries to the ARQ layer; every delivered span's
	// payload reached the destination PHY, so the trace-side total must be
	// at least the measured goodput.
	measured := res.Total() * res.Duration.Seconds() / 8
	if float64(delivered) < measured {
		t.Errorf("span-delivered bytes %d < measured goodput bytes %.0f",
			delivered, measured)
	}
}

// airUs sums the airtime of a span's attempts.
func airUs(s *span.Span) int64 {
	var sum int64
	for _, a := range s.Attempts {
		sum += a.AirUs
	}
	return sum
}
