package arq

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSenderDefaults(t *testing.T) {
	s := NewSender(0, 0)
	if s.window != DefaultWindow {
		t.Errorf("Window = %d", s.window)
	}
	s = NewSender(100, 5)
	if s.window != 32 {
		t.Errorf("Window should clamp to 32, got %d", s.window)
	}
}

func TestSenderFillsWindowWithNewFrames(t *testing.T) {
	s := NewSender(4, 8)
	for i := 0; i < 4; i++ {
		seq, payload, retry, _ := s.Next(100+i, true)
		if retry {
			t.Fatalf("frame %d should be new", i)
		}
		if seq != uint16(i) {
			t.Errorf("seq = %d, want %d", seq, i)
		}
		if payload != 100+i {
			t.Errorf("payload = %d", payload)
		}
	}
	if len(s.inflight) != 4 {
		t.Errorf("InFlight = %d", len(s.inflight))
	}
	// Window full: the next call retransmits the oldest hole.
	seq, payload, retry, _ := s.Next(999, true)
	if !retry || seq != 0 || payload != 100 {
		t.Errorf("got seq=%d payload=%d retry=%v, want retransmit of 0", seq, payload, retry)
	}
}

func TestRetransmissionsCycleThroughHoles(t *testing.T) {
	s := NewSender(3, 100)
	for i := 0; i < 3; i++ {
		s.Next(10, true)
	}
	var order []uint16
	for i := 0; i < 6; i++ {
		seq, _, retry, _ := s.Next(10, true)
		if !retry {
			t.Fatal("window is full; expected retransmissions")
		}
		order = append(order, seq)
	}
	want := []uint16{0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("retransmit order = %v, want %v", order, want)
		}
	}
}

func TestOnAckSingle(t *testing.T) {
	s := NewSender(4, 8)
	s.Next(100, true)
	s.Next(200, true)
	frames, bytes := s.OnAck(0, 0)
	if frames != 1 || bytes != 100 {
		t.Errorf("frames=%d bytes=%d", frames, bytes)
	}
	if len(s.inflight) != 1 || s.delivered != 1 {
		t.Errorf("InFlight=%d Acked=%d", len(s.inflight), s.delivered)
	}
	// Duplicate ACK is a no-op.
	frames, bytes = s.OnAck(0, 0)
	if frames != 0 || bytes != 0 {
		t.Errorf("duplicate ack: frames=%d bytes=%d", frames, bytes)
	}
}

func TestOnAckBitmapRepairsEarlierLosses(t *testing.T) {
	s := NewSender(8, 8)
	for i := 0; i < 5; i++ {
		s.Next(10, true)
	}
	// ACK for seq 4 with a bitmap acknowledging 3, 1 and 0 (bit 0 -> seq 3,
	// bit 2 -> seq 1... bit i means 4-1-i).
	bitmap := uint32(1<<0 | 1<<2 | 1<<3)
	frames, bytes := s.OnAck(4, bitmap)
	if frames != 4 || bytes != 40 {
		t.Errorf("frames=%d bytes=%d, want 4/40", frames, bytes)
	}
	// Seq 2 remains the only hole.
	seq, _, retry, _ := s.Next(10, true)
	if retry {
		// Window has room so a new frame comes first.
		t.Fatalf("expected new frame, got retransmit of %d", seq)
	}
	if len(s.inflight) != 2 { // the hole (2) and the new frame (5)
		t.Errorf("InFlight = %d", len(s.inflight))
	}
}

func TestDropAfterMaxAttempts(t *testing.T) {
	s := NewSender(1, 3)
	seq0, _, _, _ := s.Next(50, true)
	if seq0 != 0 {
		t.Fatal("first seq should be 0")
	}
	// Attempts: 1 (initial) + retransmissions.
	s.Next(50, true) // attempt 2
	s.Next(50, true) // attempt 3 -> at bound
	seq, _, retry, _ := s.Next(60, true)
	if retry || seq != 1 {
		t.Errorf("after drop, got seq=%d retry=%v; want fresh seq 1", seq, retry)
	}
	if s.dropped != 1 {
		t.Errorf("Dropped = %d", s.dropped)
	}
}

func TestReceiverDedup(t *testing.T) {
	r := NewReceiver()
	if !r.OnData(0) || !r.OnData(1) {
		t.Error("first receptions must be new")
	}
	if r.OnData(0) || r.OnData(1) {
		t.Error("duplicates must not be new")
	}
	if !r.OnData(5) {
		t.Error("gap frame must be new")
	}
}

func TestReceiverAckBitmap(t *testing.T) {
	r := NewReceiver()
	if r.started {
		t.Error("receiver with no data reports started")
	}
	r.OnData(0)
	r.OnData(1)
	r.OnData(3) // 2 is missing
	ackSeq, bitmap := r.AckFor(r.highest)
	if ackSeq != 3 {
		t.Fatalf("ackSeq=%d", ackSeq)
	}
	// bit0 -> seq 2 (missing), bit1 -> seq 1 (seen), bit2 -> seq 0 (seen).
	if bitmap&1 != 0 {
		t.Error("bit for missing seq 2 must be clear")
	}
	if bitmap&(1<<1) == 0 || bitmap&(1<<2) == 0 {
		t.Error("bits for seqs 1 and 0 must be set")
	}
}

func TestReceiverOldDuplicateBeyondHorizon(t *testing.T) {
	r := NewReceiver()
	r.OnData(0)
	r.OnData(1000) // far ahead; 0 falls out of the horizon
	if r.OnData(0) {
		t.Error("frame beyond horizon should be treated as duplicate")
	}
}

func TestSequenceWraparound(t *testing.T) {
	s := NewSender(4, 8)
	s.next = 0xFFFE
	r := NewReceiver()
	for i := 0; i < 6; i++ {
		seq, _, retry, _ := s.Next(10, true)
		if retry {
			t.Fatal("unexpected retransmission")
		}
		if !r.OnData(seq) {
			t.Fatalf("wrapped seq %d should be new", seq)
		}
		s.OnAck(r.AckFor(r.highest))
	}
	if len(s.inflight) != 0 || s.delivered != 6 {
		t.Errorf("InFlight=%d Acked=%d", len(s.inflight), s.delivered)
	}
}

// TestLossyLinkEventuallyDeliversEverything simulates the full protocol over
// a lossy link: every data frame and every ACK is dropped independently.
// All frames must be delivered exactly once and the sender must learn it.
func TestLossyLinkEventuallyDeliversEverything(t *testing.T) {
	lossRates := []float64{0, 0.1, 0.3, 0.5}
	for _, loss := range lossRates {
		rng := rand.New(rand.NewSource(int64(loss*100) + 1))
		s := NewSender(8, 1000)
		r := NewReceiver()
		const total = 200
		newFrames := 0
		deliveredNew := 0
		for steps := 0; steps < 100000 && s.delivered < total; steps++ {
			var seq uint16
			var retry bool
			if newFrames < total {
				seq, _, retry, _ = s.Next(100, true)
				if !retry {
					newFrames++
				}
			} else if len(s.inflight) > 0 {
				seq, _, retry, _ = s.Next(0, true)
				if !retry {
					newFrames++ // window had room; count it anyway
				}
			} else {
				break
			}
			if rng.Float64() < loss {
				continue // data frame lost
			}
			if r.OnData(seq) {
				deliveredNew++
			}
			if rng.Float64() >= loss {
				s.OnAck(r.AckFor(r.highest))
			}
		}
		if s.delivered < total {
			t.Errorf("loss=%.1f: only %d/%d acked", loss, s.delivered, total)
		}
		if deliveredNew < total {
			t.Errorf("loss=%.1f: receiver got %d/%d unique frames", loss, deliveredNew, total)
		}
		if deliveredNew > newFrames {
			t.Errorf("loss=%.1f: delivered more unique frames than sent", loss)
		}
	}
}

// TestWindowNeverExceeded is a property test: whatever the ack pattern, the
// number of in-flight frames never exceeds the window.
func TestWindowNeverExceeded(t *testing.T) {
	f := func(ops []byte) bool {
		s := NewSender(5, 50)
		r := NewReceiver()
		for _, op := range ops {
			seq, _, _, _ := s.Next(10, true)
			if len(s.inflight) > 5 {
				return false
			}
			if op%3 != 0 { // deliver 2/3 of frames
				r.OnData(seq)
			}
			if op%2 == 0 { // deliver half the acks
				if r.started {
					s.OnAck(r.AckFor(r.highest))
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestNoDuplicateDeliveryProperty: the receiver never reports the same
// sequence number as new twice, regardless of retransmission pattern.
func TestNoDuplicateDeliveryProperty(t *testing.T) {
	f := func(seqs []uint16) bool {
		r := NewReceiver()
		newSeen := make(map[uint16]bool)
		for _, q := range seqs {
			q %= 64 // keep within the horizon so semantics are exact
			if r.OnData(q) {
				if newSeen[q] {
					return false
				}
				newSeen[q] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSenderString(t *testing.T) {
	s := NewSender(4, 8)
	s.Next(10, true)
	if got := s.String(); got == "" {
		t.Error("String should be non-empty")
	}
}

func TestAckForAnchorsAtReceivedSeq(t *testing.T) {
	r := NewReceiver()
	r.OnData(10)
	r.OnData(11)
	r.OnData(40) // highest jumps far ahead
	// A retransmission of seq 10 must be ack'able directly even though it is
	// 30 behind the highest.
	ackSeq, bitmap := r.AckFor(10)
	if ackSeq != 10 {
		t.Errorf("ackSeq = %d, want 10", ackSeq)
	}
	// The bitmap covers the 32 seqs before 10; none were received.
	if bitmap != 0 {
		t.Errorf("bitmap = %b, want 0", bitmap)
	}
	// Anchored at 12, bits 0 and 1 mark 11 and 10.
	_, bitmap = r.AckFor(12)
	if bitmap&0b11 != 0b11 {
		t.Errorf("bitmap = %b, want low bits set", bitmap)
	}
}

// mapReceiver is the map-based receiver the horizon ring replaced: it
// forgets numbers older than the horizon by walking its map whenever the
// highest number advances. It is the reference for the ring's behaviour.
type mapReceiver struct {
	started bool
	highest uint16
	seen    map[uint16]bool
}

func (r *mapReceiver) onData(seq uint16) bool {
	if !r.started {
		r.started, r.highest = true, seq
		r.seen = map[uint16]bool{seq: true}
		return true
	}
	if seqBefore(r.highest, seq) {
		r.highest = seq
		for s := range r.seen {
			if uint16(r.highest-s) >= horizon {
				delete(r.seen, s)
			}
		}
	} else if uint16(r.highest-seq) >= horizon {
		return false
	}
	if r.seen[seq] {
		return false
	}
	r.seen[seq] = true
	return true
}

func (r *mapReceiver) bitmapBefore(seq uint16) uint32 {
	var bitmap uint32
	for i := uint16(0); i < 32; i++ {
		if r.seen[seq-1-i] {
			bitmap |= 1 << i
		}
	}
	return bitmap
}

// TestReceiverMatchesMapReference feeds the ring receiver and the map
// reference the same arrivals — in-order runs, jumps past the horizon,
// stragglers and wraparound — and requires identical dedup verdicts and
// ACK bitmaps, anchored both at the received number and at the highest.
func TestReceiverMatchesMapReference(t *testing.T) {
	for trial := int64(0); trial < 20; trial++ {
		rng := rand.New(rand.NewSource(trial))
		r, ref := NewReceiver(), &mapReceiver{}
		seq := uint16(rng.Intn(1 << 16))
		for i := 0; i < 5000; i++ {
			switch k := rng.Intn(20); {
			case k < 12:
				seq++
			case k < 14:
				seq += uint16(rng.Intn(600))
			case k < 19:
				seq -= uint16(rng.Intn(300))
			default:
				seq = uint16(rng.Intn(1 << 16))
			}
			if got, want := r.OnData(seq), ref.onData(seq); got != want {
				t.Fatalf("trial %d step %d: OnData(%d) = %v, want %v", trial, i, seq, got, want)
			}
			if _, got := r.AckFor(seq); got != ref.bitmapBefore(seq) {
				t.Fatalf("trial %d step %d: AckFor(%d) bitmap %032b, want %032b", trial, i, seq, got, ref.bitmapBefore(seq))
			}
			hi, got := r.AckFor(r.highest)
			if hi != ref.highest || got != ref.bitmapBefore(ref.highest) {
				t.Fatalf("trial %d step %d: highest ack = %d/%032b, want %d/%032b", trial, i, hi, got, ref.highest, ref.bitmapBefore(ref.highest))
			}
		}
	}
}

// TestNextWithoutMintOnlyRetransmits: with mint unset (a CBR stream out of
// credit) Next never mints, even with room in the window; it resends what
// is in flight and reports nothing to send when nothing is.
func TestNextWithoutMintOnlyRetransmits(t *testing.T) {
	s := NewSender(4, 8)
	if _, _, _, ok := s.Next(10, false); ok {
		t.Fatal("empty sender produced a frame without minting")
	}
	seq0, _, _, _ := s.Next(10, true)
	seq, payload, retry, ok := s.Next(20, false)
	if !ok || !retry || seq != seq0 || payload != 10 {
		t.Errorf("got seq=%d payload=%d retry=%v ok=%v; want a retransmission of seq %d with 10 bytes",
			seq, payload, retry, ok, seq0)
	}
	if len(s.inflight) != 1 {
		t.Errorf("in flight = %d, want 1: nothing new may be minted", len(s.inflight))
	}
}
