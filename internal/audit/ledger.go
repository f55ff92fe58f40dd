package audit

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/sim"
)

// Default ledger cadence: slices of 100ms of virtual time, with a deep
// protocol-state digest every 8th slice close. At the golden scenarios'
// 1s duration that is 10 slice records and 2 deep digests per run.
const (
	DefaultSliceInterval = 100 * time.Millisecond
	DefaultDeepEvery     = 8

	// maxCapturedEvents bounds the per-event capture buffer so a
	// mis-sized bisect window cannot balloon the ledger; the end record
	// carries a truncation flag when the cap is hit.
	maxCapturedEvents = 1 << 20
)

// Config controls one ledger. The zero value plus a Manifest is a valid
// in-memory ledger at the default cadence; set Sink to also stream JSONL.
type Config struct {
	// SliceInterval is the virtual-time width of one digest slice.
	// Defaults to DefaultSliceInterval.
	SliceInterval time.Duration
	// DeepEvery emits the deep protocol-state digests every Nth slice
	// close (plus always on the final Finish slice). Defaults to
	// DefaultDeepEvery. 1 digests every slice (bisect densification).
	DeepEvery int
	// Sink, when non-nil, receives the ledger as JSONL while the run
	// progresses. Records are always also retained in memory (File).
	Sink io.Writer
	// CaptureFrom/CaptureUntil bound an optional per-event capture
	// window [CaptureFrom, CaptureUntil): every dispatched event inside
	// it is recorded individually, which is how bisect names the first
	// divergent event. Capture is off unless CaptureUntil > CaptureFrom.
	CaptureFrom  time.Duration
	CaptureUntil time.Duration
	// InjectNondet is a test-only hook consumed by netsim.Build: it
	// installs a recurring tick that iterates a Go map and schedules a
	// no-op event per entry, deliberately leaking map-iteration order
	// into the dispatch sequence. It exists so the bisect acceptance
	// test (and EXPERIMENTS.md walkthrough) have a real nondeterminism
	// to localize. Never set outside tests.
	InjectNondet bool
}

func (c Config) withDefaults() Config {
	if c.SliceInterval <= 0 {
		c.SliceInterval = DefaultSliceInterval
	}
	if c.DeepEvery <= 0 {
		c.DeepEvery = DefaultDeepEvery
	}
	return c
}

// DeepSource is a registered protocol-state digest: Fn folds one
// subsystem's current state into the hasher at deep-digest slices. Fn runs
// on the simulation goroutine and must only read state, never mutate it.
type DeepSource struct {
	Name string
	Fn   func(*Hasher)
}

// SliceRecord is one closed time slice: the cumulative per-tag chains as of
// the slice boundary (chains never reset, so pairwise slice comparison
// localizes the first divergent slice), plus deep digests on deep slices.
type SliceRecord struct {
	Type    string            `json:"type"` // "slice"
	Idx     int64             `json:"idx"`
	StartUs int64             `json:"start_us"`
	EndUs   int64             `json:"end_us"`
	Events  uint64            `json:"events"` // cumulative dispatched events at slice close
	Chains  map[string]string `json:"chains"` // tag name -> %016x rolling chain
	Deep    map[string]string `json:"deep,omitempty"`
}

// EventRecord is one dispatched event inside the capture window.
type EventRecord struct {
	Type  string `json:"type"` // "event"
	Seq   uint64 `json:"seq"`  // global dispatch sequence (1-based)
	AtNs  int64  `json:"at_ns"`
	Tag   string `json:"tag"`
	Owner int32  `json:"owner"`
}

// EndRecord closes the ledger: totals plus the combined head digest (the
// fold of every per-tag chain in tag order and the dispatch count).
type EndRecord struct {
	Type      string `json:"type"` // "end"
	Events    uint64 `json:"events"`
	Slices    int64  `json:"slices"`
	Head      string `json:"head"`
	Truncated bool   `json:"truncated,omitempty"` // event capture hit its cap
}

// LedgerFile is a fully parsed (or in-memory) ledger.
type LedgerFile struct {
	Manifest Manifest
	Slices   []SliceRecord
	Events   []EventRecord
	End      *EndRecord
}

// Head is a point-in-time snapshot of the ledger for concurrent scrapers
// (the obs plane's /audit endpoint). It advances at slice granularity: the
// chains lag the sim goroutine by at most one open slice.
type Head struct {
	Scenario   string            `json:"scenario"`
	Slices     int64             `json:"slices"`
	SliceEndUs int64             `json:"slice_end_us"`
	Events     uint64            `json:"events"`
	Head       string            `json:"head"` // combined digest over current chains
	Chains     map[string]string `json:"chains"`
	DeepSlices int64             `json:"deep_slices"`
	Finished   bool              `json:"finished"`
	Err        string            `json:"err,omitempty"`
}

// Ledger folds the dispatch stream into per-slice digests. It implements
// sim.Observer; all methods except Head and Err must run on the simulation
// goroutine.
type Ledger struct {
	cfg     Config
	capture bool

	chains   [sim.NumTags]uint64
	events   uint64 // global dispatch counter (folded into every chain step)
	sliceIdx int64
	sliceEnd time.Duration
	deep     []DeepSource
	deepN    int64
	finished bool

	file     LedgerFile
	captured int
	trunc    bool

	enc *json.Encoder
	err error

	hasher Hasher

	mu   sync.Mutex
	head Head
}

// NewLedger opens a ledger: it stamps the manifest's environment fields,
// writes the manifest line to the sink (when configured) and arms the first
// slice. The caller then installs the ledger as the engine's observer (or
// tees it with the profiler) and calls Finish once the run completes.
func NewLedger(cfg Config, m Manifest) *Ledger {
	cfg = cfg.withDefaults()
	m.fillEnv()
	m.SliceUs = cfg.SliceInterval.Microseconds()
	m.DeepEvery = cfg.DeepEvery
	l := &Ledger{
		cfg:      cfg,
		capture:  cfg.CaptureUntil > cfg.CaptureFrom,
		sliceEnd: cfg.SliceInterval,
	}
	for i := range l.chains {
		l.chains[i] = fnvOffset
	}
	l.file.Manifest = m
	if cfg.Sink != nil {
		l.enc = json.NewEncoder(cfg.Sink)
		l.write(&m)
	}
	l.publishHead()
	return l
}

// RegisterDeep adds a protocol-state digest source. Call during network
// construction, before the run starts.
func (l *Ledger) RegisterDeep(name string, fn func(*Hasher)) {
	l.deep = append(l.deep, DeepSource{Name: name, Fn: fn})
}

// OnEvent implements sim.Observer: it closes any slices the clock has moved
// past, then folds (dispatch sequence, event time, owner) into the tag's
// rolling chain. Steady-state cost is one branch, three folds and a few
// integer ops; slice closes (every SliceInterval of virtual time) take the
// mutex and may allocate.
func (l *Ledger) OnEvent(at time.Duration, tag sim.Tag, owner int32) {
	if at >= l.sliceEnd {
		l.closeSlicesUntil(at)
	}
	l.events++
	c := l.chains[tag]
	c = foldUint64(c, l.events)
	c = foldUint64(c, uint64(int64(at)))
	c = foldUint64(c, uint64(int64(owner)))
	l.chains[tag] = c
	if l.capture && at >= l.cfg.CaptureFrom && at < l.cfg.CaptureUntil {
		l.captureEvent(at, tag, owner)
	}
}

func (l *Ledger) captureEvent(at time.Duration, tag sim.Tag, owner int32) {
	if l.captured >= maxCapturedEvents {
		l.trunc = true
		return
	}
	l.captured++
	rec := EventRecord{Type: "event", Seq: l.events, AtNs: int64(at), Tag: tag.String(), Owner: owner}
	l.file.Events = append(l.file.Events, rec)
	l.write(&rec)
}

// closeSlicesUntil emits a slice record for every slice boundary at or
// before at, so empty slices still appear in the ledger.
func (l *Ledger) closeSlicesUntil(at time.Duration) {
	for l.sliceEnd <= at {
		deep := l.cfg.DeepEvery > 0 && (l.sliceIdx+1)%int64(l.cfg.DeepEvery) == 0
		l.emitSlice(l.sliceEnd, deep)
		l.sliceIdx++
		l.sliceEnd += l.cfg.SliceInterval
		l.publishHead()
	}
}

// emitSlice records the slice ending at end with the current cumulative
// chains (and deep digests when requested).
func (l *Ledger) emitSlice(end time.Duration, deep bool) {
	rec := SliceRecord{
		Type:    "slice",
		Idx:     l.sliceIdx,
		StartUs: (end - l.cfg.SliceInterval).Microseconds(),
		EndUs:   end.Microseconds(),
		Events:  l.events,
		Chains:  l.chainMap(),
	}
	if rec.StartUs < 0 {
		rec.StartUs = 0
	}
	if deep {
		rec.Deep = l.deepMap()
		l.deepN++
	}
	l.file.Slices = append(l.file.Slices, rec)
	l.write(&rec)
}

func (l *Ledger) chainMap() map[string]string {
	m := make(map[string]string, sim.NumTags)
	for t := sim.Tag(0); t < sim.NumTags; t++ {
		m[t.String()] = fmt.Sprintf("%016x", l.chains[t])
	}
	return m
}

func (l *Ledger) deepMap() map[string]string {
	m := make(map[string]string, len(l.deep))
	for _, src := range l.deep {
		l.hasher.Reset()
		src.Fn(&l.hasher)
		m[src.Name] = fmt.Sprintf("%016x", l.hasher.Sum())
	}
	return m
}

// combinedHead folds every per-tag chain (in tag order) and the dispatch
// count into one digest — the single value surfaced on /audit and /healthz.
func (l *Ledger) combinedHead() uint64 {
	h := fnvOffset
	for t := sim.Tag(0); t < sim.NumTags; t++ {
		h = foldUint64(h, l.chains[t])
	}
	return foldUint64(h, l.events)
}

// Finish closes the ledger at the run's end time: remaining whole slices
// are emitted, then one final (possibly partial) slice carrying deep
// digests unconditionally, then the end record. Call exactly once, on the
// simulation goroutine, after the run completes.
func (l *Ledger) Finish(end time.Duration) {
	if l.finished {
		return
	}
	l.closeSlicesUntil(end)
	// Final partial slice [sliceEnd-interval, end): always deep, so every
	// ledger closes on a full protocol-state digest even when the duration
	// is not slice-aligned.
	final := SliceRecord{
		Type:    "slice",
		Idx:     l.sliceIdx,
		StartUs: (l.sliceEnd - l.cfg.SliceInterval).Microseconds(),
		EndUs:   end.Microseconds(),
		Events:  l.events,
		Chains:  l.chainMap(),
		Deep:    l.deepMap(),
	}
	if final.StartUs < 0 {
		final.StartUs = 0
	}
	l.deepN++
	l.sliceIdx++
	l.file.Slices = append(l.file.Slices, final)
	l.write(&final)
	endRec := EndRecord{
		Type:      "end",
		Events:    l.events,
		Slices:    l.sliceIdx,
		Head:      fmt.Sprintf("%016x", l.combinedHead()),
		Truncated: l.trunc,
	}
	l.file.End = &endRec
	l.write(&endRec)
	l.finished = true
	l.publishHead()
}

func (l *Ledger) write(v any) {
	if l.enc == nil || l.err != nil {
		return
	}
	if err := l.enc.Encode(v); err != nil {
		l.err = err
	}
}

// publishHead refreshes the concurrent-read snapshot. Simulation goroutine.
func (l *Ledger) publishHead() {
	h := Head{
		Scenario:   l.file.Manifest.Scenario,
		Slices:     l.sliceIdx,
		SliceEndUs: (l.sliceEnd - l.cfg.SliceInterval).Microseconds(),
		Events:     l.events,
		Head:       fmt.Sprintf("%016x", l.combinedHead()),
		Chains:     l.chainMap(),
		DeepSlices: l.deepN,
		Finished:   l.finished,
	}
	if l.err != nil {
		h.Err = l.err.Error()
	}
	l.mu.Lock()
	l.head = h
	l.mu.Unlock()
}

// Head returns the latest published snapshot. Safe for concurrent readers;
// advances at slice closes, so it lags the sim goroutine by at most one
// open slice.
func (l *Ledger) Head() Head {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := l.head
	// Shallow chain-map copy so scrapers can't race a later publish.
	chains := make(map[string]string, len(h.Chains))
	for k, v := range h.Chains {
		chains[k] = v
	}
	h.Chains = chains
	return h
}

// Err returns the first sink write error, if any. Safe after the run.
func (l *Ledger) Err() error { return l.err }

// File returns the in-memory ledger. Valid after Finish; the in-process
// bisector compares two of these without touching the filesystem.
func (l *Ledger) File() *LedgerFile { return &l.file }
