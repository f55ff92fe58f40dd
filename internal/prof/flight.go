package prof

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// Flight is a lock-free ring buffer of the last N dispatched events — the
// engine's black box. The writer is the simulation goroutine; readers
// (the /flight endpoint, dump-on-panic) may snapshot it concurrently.
//
// Each record is packed into a single uint64 so slots can be read and
// written with plain atomics — no locks, no tearing, race-detector clean:
//
//	bits 63..23  virtual time in microseconds (41 bits, ~25 days)
//	bits 22..17  subsystem tag (6 bits)
//	bits 16..0   owner node + 1 (17 bits; 0 encodes sim.NoOwner)
//
// A reader that races a wrap-around may see a slot newer than the head it
// read — acceptable for a flight recorder, whose job is "what were the
// last few thousand events", not a serialized log.
type Flight struct {
	mask  uint64
	slots []atomic.Uint64
	head  atomic.Uint64 // total records ever written
}

// NewFlight returns a recorder holding the last n events (n rounded up to
// a power of two, minimum 16).
func NewFlight(n int) *Flight {
	size := 16
	for size < n {
		size <<= 1
	}
	return &Flight{mask: uint64(size - 1), slots: make([]atomic.Uint64, size)}
}

const (
	flightTimeShift = 23
	flightTagShift  = 17
	flightTagMask   = 0x3F
	flightOwnerMask = 0x1FFFF
)

func packRecord(at time.Duration, tag sim.Tag, owner int32) uint64 {
	us := uint64(at / time.Microsecond)
	ownerField := uint64(0)
	if owner >= 0 {
		ownerField = (uint64(owner) + 1) & flightOwnerMask
	}
	return us<<flightTimeShift | (uint64(tag)&flightTagMask)<<flightTagShift | ownerField
}

// Record is one decoded flight-recorder entry.
type Record struct {
	// AtUs is the event's virtual time in microseconds.
	AtUs int64 `json:"at_us"`
	// Tag is the subsystem the event was attributed to.
	Tag string `json:"tag"`
	// Owner is the owning node ID, or -1 for run-wide timers.
	Owner int32 `json:"owner"`
}

func unpackRecord(w uint64) Record {
	owner := int32(w&flightOwnerMask) - 1
	return Record{
		AtUs:  int64(w >> flightTimeShift),
		Tag:   sim.Tag((w >> flightTagShift) & flightTagMask).String(),
		Owner: owner,
	}
}

// Record appends one event. Simulation goroutine only; allocation-free.
func (f *Flight) Record(at time.Duration, tag sim.Tag, owner int32) {
	h := f.head.Load()
	f.slots[h&f.mask].Store(packRecord(at, tag, owner))
	f.head.Store(h + 1)
}

// Total returns the number of records ever written. Safe for concurrent
// readers.
func (f *Flight) Total() uint64 { return f.head.Load() }

// Snapshot decodes the ring's current contents, oldest first. Safe to call
// while the simulation keeps recording.
func (f *Flight) Snapshot() []Record {
	h := f.head.Load()
	n := uint64(len(f.slots))
	start := uint64(0)
	if h > n {
		start = h - n
	}
	out := make([]Record, 0, h-start)
	for i := start; i < h; i++ {
		out = append(out, unpackRecord(f.slots[i&f.mask].Load()))
	}
	return out
}

// FlightDump is the JSON layout of a flight-recorder dump file.
type FlightDump struct {
	// Reason records why the dump was taken ("panic", "fault-outage",
	// "on-demand", ...).
	Reason string `json:"reason"`
	// Total is the number of events ever recorded; Records holds the most
	// recent min(Total, capacity), oldest first.
	Total   uint64   `json:"total"`
	Records []Record `json:"records"`
}

// DumpTo writes the ring's contents as JSON into dir (created if needed)
// and returns the file path. The file name carries the run id, the reason
// and the total-record count, so successive dumps of one run — and
// same-reason dumps of different runs sharing a directory — never collide.
func (f *Flight) DumpTo(dir, runID, reason string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("prof: flight dump dir: %w", err)
	}
	d := FlightDump{Reason: reason, Records: f.Snapshot(), Total: f.Total()}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", err
	}
	name := fmt.Sprintf("flight-%s-%s-%d.json", sanitizeReason(runID), sanitizeReason(reason), d.Total)
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("prof: flight dump: %w", err)
	}
	return path, nil
}

// DumpFlight dumps the profiler's flight ring into its configured dir,
// namespaced by the profiler's run id. No-op ("" path, nil error) when the
// recorder is disabled.
func (p *Profiler) DumpFlight(reason string) (string, error) {
	if p == nil || p.flight == nil {
		return "", nil
	}
	return p.flight.DumpTo(p.cfg.Dir, p.runID, reason)
}

// sanitizeReason keeps dump file names portable.
func sanitizeReason(r string) string {
	out := make([]byte, 0, len(r))
	for i := 0; i < len(r); i++ {
		c := r[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "dump"
	}
	return string(out)
}
