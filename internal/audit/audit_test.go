package audit

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestHasherDistinguishesInputs(t *testing.T) {
	sum := func(fold func(h *Hasher)) uint64 {
		h := NewHasher()
		fold(h)
		return h.Sum()
	}
	a := sum(func(h *Hasher) { h.String("ab"); h.String("c") })
	b := sum(func(h *Hasher) { h.String("a"); h.String("bc") })
	if a == b {
		t.Fatal("length-prefixed strings must not be concatenation-ambiguous")
	}
	if sum(func(h *Hasher) { h.Bool(true) }) == sum(func(h *Hasher) { h.Bool(false) }) {
		t.Fatal("bool folds collide")
	}
	if sum(func(h *Hasher) { h.Int64(-1) }) == sum(func(h *Hasher) { h.Uint64(1) }) {
		t.Fatal("sign must survive the fold")
	}
	if sum(func(h *Hasher) { h.Float64(1.5) }) != sum(func(h *Hasher) { h.Float64(1.5) }) {
		t.Fatal("identical floats must fold identically")
	}
}

func testManifest() Manifest {
	return Manifest{
		Scenario: "unit", Seed: 7,
		OptionsFP: "00000000000000aa", Topology: "t", TopologyHash: "00000000000000bb",
	}
}

// feed replays a fixed event schedule into a ledger.
func feed(l *Ledger, events [][3]int64) {
	for _, e := range events {
		l.OnEvent(time.Duration(e[0]), sim.Tag(e[1]), int32(e[2]))
	}
}

var fixedEvents = [][3]int64{
	{int64(10 * time.Millisecond), int64(sim.TagMAC), 1},
	{int64(20 * time.Millisecond), int64(sim.TagChannel), 2},
	{int64(120 * time.Millisecond), int64(sim.TagMAC), 1},   // closes slice 0
	{int64(250 * time.Millisecond), int64(sim.TagComap), 3}, // closes slice 1
}

func TestLedgerSliceAccounting(t *testing.T) {
	var buf bytes.Buffer
	l := NewLedger(Config{Sink: &buf, DeepEvery: 2}, testManifest())
	l.RegisterDeep("probe", func(h *Hasher) { h.Int(42) })
	feed(l, fixedEvents)
	l.Finish(300 * time.Millisecond)

	f := l.File()
	// Slices: 0,1 closed by events, 2 closed by Finish, plus the final
	// partial slice [300ms, 300ms).
	if len(f.Slices) != 4 {
		t.Fatalf("want 4 slice records, got %d", len(f.Slices))
	}
	if f.Slices[0].Events != 2 || f.Slices[1].Events != 3 || f.Slices[2].Events != 4 {
		t.Fatalf("cumulative event counts wrong: %+v", f.Slices)
	}
	// DeepEvery=2: slices 1 and 3 would be deep among regular closes
	// (idx+1 divisible by 2); the final Finish slice is always deep.
	if f.Slices[0].Deep != nil {
		t.Fatal("slice 0 unexpectedly deep")
	}
	if f.Slices[1].Deep == nil {
		t.Fatal("slice 1 should be deep (DeepEvery=2)")
	}
	if f.Slices[3].Deep == nil {
		t.Fatal("final slice must always be deep")
	}
	if f.End == nil || f.End.Events != 4 || f.End.Slices != 4 {
		t.Fatalf("end record wrong: %+v", f.End)
	}
	// Chains are cumulative: the mac chain must be identical in slices 1..3
	// (no mac events after the third event) and different from slice 0.
	if f.Slices[1].Chains["mac"] == f.Slices[0].Chains["mac"] {
		t.Fatal("mac chain did not advance across its second event")
	}
	if f.Slices[2].Chains["mac"] != f.Slices[1].Chains["mac"] {
		t.Fatal("mac chain advanced without mac events")
	}
}

func TestReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewLedger(Config{Sink: &buf, DeepEvery: 2, CaptureFrom: 0, CaptureUntil: 50 * time.Millisecond}, testManifest())
	l.RegisterDeep("probe", func(h *Hasher) { h.Int(42) })
	feed(l, fixedEvents)
	l.Finish(300 * time.Millisecond)

	parsed, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if d := Compare(l.File(), parsed); d != nil {
		t.Fatalf("round trip diverged: %s", d)
	}
	if len(parsed.Events) != 2 {
		t.Fatalf("capture window [0,50ms) should hold 2 events, got %d", len(parsed.Events))
	}
	if parsed.Events[0].Tag != "mac" || parsed.Events[0].Seq != 1 {
		t.Fatalf("first captured event wrong: %+v", parsed.Events[0])
	}
}

func TestCompareLocalizesChainSplit(t *testing.T) {
	mk := func(perturb bool) *LedgerFile {
		l := NewLedger(Config{}, testManifest())
		ev := fixedEvents
		if perturb {
			ev = append([][3]int64{}, fixedEvents...)
			ev[3] = [3]int64{int64(250 * time.Millisecond), int64(sim.TagComap), 99} // owner differs
		}
		feed(l, ev)
		l.Finish(300 * time.Millisecond)
		return l.File()
	}
	d := Compare(mk(false), mk(true))
	if d == nil {
		t.Fatal("perturbed owner not detected")
	}
	if d.Kind != "slice" || d.SliceIdx != 2 {
		t.Fatalf("want slice divergence at idx 2, got %+v", d)
	}
	if len(d.Tags) != 1 || d.Tags[0] != "comap" {
		t.Fatalf("want the comap chain named, got %v", d.Tags)
	}
	if !strings.Contains(d.String(), "comap") {
		t.Fatalf("report does not name the subsystem: %s", d)
	}
}

func TestCompareRefusesForeignManifests(t *testing.T) {
	a := NewLedger(Config{}, testManifest())
	a.Finish(100 * time.Millisecond)
	m := testManifest()
	m.Seed = 8
	b := NewLedger(Config{}, m)
	b.Finish(100 * time.Millisecond)
	d := Compare(a.File(), b.File())
	if d == nil || d.Kind != "manifest" || !strings.Contains(d.Reason, "seed") {
		t.Fatalf("seed mismatch not reported: %+v", d)
	}
}

func TestCompareIgnoresEnvironmentFields(t *testing.T) {
	a := NewLedger(Config{}, testManifest())
	feed(a, fixedEvents)
	a.Finish(300 * time.Millisecond)
	b := NewLedger(Config{}, testManifest())
	feed(b, fixedEvents)
	b.Finish(300 * time.Millisecond)
	bf := *b.File()
	bf.Manifest.Host = "elsewhere"
	bf.Manifest.GoVersion = "go999"
	bf.Manifest.CreatedUTC = "1970-01-01T00:00:00Z"
	if d := Compare(a.File(), &bf); d != nil {
		t.Fatalf("environment fields must not affect comparison: %s", d)
	}
}

func TestHeadSnapshot(t *testing.T) {
	l := NewLedger(Config{}, testManifest())
	feed(l, fixedEvents)
	h := l.Head()
	if h.Scenario != "unit" || h.Finished {
		t.Fatalf("unexpected head: %+v", h)
	}
	// Head advances at slice closes: events 3 and 4 closed slices 0 and 1.
	if h.Slices != 2 {
		t.Fatalf("want 2 closed slices in head, got %d", h.Slices)
	}
	l.Finish(300 * time.Millisecond)
	h = l.Head()
	if !h.Finished || h.Events != 4 || h.Chains["mac"] == "" {
		t.Fatalf("finished head wrong: %+v", h)
	}
}

// FuzzRead feeds arbitrary JSONL to the ledger reader, seeded from the
// netsim golden ledgers: whole files, and the manifest with each single
// record line. Read must reject bad input with an error, never a panic, and
// every ledger it accepts must compare equal to itself.
func FuzzRead(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "netsim", "testdata", "golden_ledger_*.jsonl"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no golden ledgers to seed from (err %v)", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		lines := bytes.SplitAfter(data, []byte("\n"))
		for _, line := range lines[1:] {
			f.Add(append(append([]byte{}, lines[0]...), line...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lf, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if d := Compare(lf, lf); d != nil {
			t.Fatalf("accepted ledger differs from itself: %s", d)
		}
	})
}
