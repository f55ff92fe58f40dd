// Package faults is the deterministic fault-injection layer: it parses a
// compact fault-spec grammar and drives schedulable fault processes —
// location-report loss and delay, localization outages, position-bias
// bursts, station churn, channel burst fading and noise-floor jumps —
// entirely off the simulation clock and named engine RNG streams, so a run
// with the same seed and spec is bit-reproducible.
//
// The spec grammar is a semicolon-separated list of processes, each
// "kind:key=value,key=value":
//
//	locloss:p=0.3                      drop 30% of location reports (whole run)
//	locloss:p=0.5,at=2s,dur=1s         ... only inside a window
//	locdelay:d=200ms                   commit reports 200 ms late
//	outage:node=2,at=1s,dur=2s         node 2's fixes freeze for 2 s
//	bias:at=1s,dur=500ms,m=20          all reports shift 20 m for 500 ms
//	churn:node=3,at=1s,dur=2s          node 3 leaves at 1 s, re-joins at 3 s
//	fade:at=2s,dur=300ms,db=10         10 dB extra path loss on all links
//	noise:at=2s,dur=300ms,db=15        noise floor jumps +15 dB
//	rpcloss:p=0.3                      30% of control-plane calls vanish
//	rpcdelay:d=5ms,at=1s,dur=500ms     control-plane RTT +5 ms in a window
//	rpcpartition:at=1s,dur=300ms       control plane unreachable for 300 ms
//	rpcrestart:at=1s,dur=300ms         control plane crashes, recovers at 1.3 s
//
// Windowed processes accept "every=" to recur (the window re-opens each
// period until the run ends). The rpc* kinds drive the mapsvc control-plane
// transport and are only legal in a -rpc-faults spec alongside -comap-remote.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind names a fault process.
type Kind string

// The supported fault processes.
const (
	LocLoss  Kind = "locloss"  // location reports dropped with probability p
	LocDelay Kind = "locdelay" // location reports commit d late
	Outage   Kind = "outage"   // a node's fixes freeze (ages accumulate)
	Bias     Kind = "bias"     // reports shift by m meters (random direction)
	Churn    Kind = "churn"    // a station leaves and later re-joins
	Fade     Kind = "fade"     // burst fading: db extra path loss, all links
	Noise    Kind = "noise"    // noise floor jumps by db

	// The RPC fault classes target the CO-MAP control-plane transport (the
	// mapsvc client/server boundary) rather than the location pipeline.
	// They are global — the control plane serves every station — so node=
	// is rejected.

	// RPCLoss silently drops control-plane requests with probability p; the
	// caller's per-call deadline is the only way out.
	RPCLoss Kind = "rpcloss"
	// RPCDelay adds d of round-trip latency to every control-plane call.
	RPCDelay Kind = "rpcdelay"
	// RPCPartition black-holes the control plane for the window (requests
	// vanish like rpcloss p=1, but as a window state, not per-call draws).
	RPCPartition Kind = "rpcpartition"
	// RPCRestart crashes the control-plane service at the window open (calls
	// fail fast, in-memory state is lost) and recovers it — snapshot + WAL
	// replay — at the window close.
	RPCRestart Kind = "rpcrestart"
)

// IsRPC reports whether the kind targets the control-plane transport.
func (k Kind) IsRPC() bool {
	switch k {
	case RPCLoss, RPCDelay, RPCPartition, RPCRestart:
		return true
	}
	return false
}

// Process is one parsed fault process.
type Process struct {
	Kind Kind
	// Node is the targeted station; HasNode is false when the process
	// applies to every station (allowed for locloss/locdelay/bias).
	Node    uint16
	HasNode bool
	// At is the window start; Dur its length (0 = the whole run, only legal
	// for locloss/locdelay); Every re-opens the window each period.
	At, Dur, Every time.Duration
	// P is the loss probability (locloss), D the commit latency (locdelay),
	// M the bias magnitude in meters (bias), DB the attenuation or
	// noise-floor jump in dB (fade/noise).
	P  float64
	D  time.Duration
	M  float64
	DB float64
}

// windowed reports whether the process has a bounded activation window.
func (p Process) windowed() bool { return p.Dur > 0 }

// Spec is a parsed fault specification.
type Spec struct {
	raw   string
	Procs []Process
}

// String returns the original spec text (for reports and reproduction).
func (s *Spec) String() string {
	if s == nil {
		return ""
	}
	return s.raw
}

// HasRPC reports whether any process targets the control-plane transport.
func (s *Spec) HasRPC() bool {
	if s == nil {
		return false
	}
	for _, p := range s.Procs {
		if p.Kind.IsRPC() {
			return true
		}
	}
	return false
}

// HasNonRPC reports whether any process targets the location/channel planes.
func (s *Spec) HasNonRPC() bool {
	if s == nil {
		return false
	}
	for _, p := range s.Procs {
		if !p.Kind.IsRPC() {
			return true
		}
	}
	return false
}

// Merge combines two specs into one injector input, appending b's processes
// after a's so a's per-process RNG stream names ("faults.<idx>.<kind>") are
// unchanged. When either side is nil the other is returned as-is (pointer
// identity preserved, so callers comparing against the original spec — e.g.
// report blocks — see no difference).
func Merge(a, b *Spec) *Spec {
	if b == nil {
		return a
	}
	if a == nil {
		return b
	}
	m := &Spec{raw: a.raw + ";" + b.raw}
	m.Procs = append(append([]Process{}, a.Procs...), b.Procs...)
	return m
}

// Parse parses and validates a fault spec. An empty string yields a nil
// Spec (no faults).
func Parse(text string) (*Spec, error) {
	trimmed := strings.TrimSpace(text)
	if trimmed == "" {
		return nil, nil
	}
	spec := &Spec{raw: trimmed}
	for _, part := range strings.Split(trimmed, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p, err := parseProcess(part)
		if err != nil {
			return nil, fmt.Errorf("faults: %q: %w", part, err)
		}
		spec.Procs = append(spec.Procs, p)
	}
	if len(spec.Procs) == 0 {
		return nil, fmt.Errorf("faults: spec %q contains no processes", trimmed)
	}
	return spec, nil
}

func parseProcess(text string) (Process, error) {
	kindStr, params, _ := strings.Cut(text, ":")
	p := Process{Kind: Kind(strings.TrimSpace(kindStr))}
	switch p.Kind {
	case LocLoss, LocDelay, Outage, Bias, Churn, Fade, Noise,
		RPCLoss, RPCDelay, RPCPartition, RPCRestart:
	default:
		return p, fmt.Errorf("unknown fault kind %q (want one of %s)", p.Kind, kindList())
	}
	if params != "" {
		for _, kv := range strings.Split(params, ",") {
			key, val, found := strings.Cut(strings.TrimSpace(kv), "=")
			if !found || val == "" {
				return p, fmt.Errorf("malformed parameter %q (want key=value)", kv)
			}
			if err := p.setParam(strings.TrimSpace(key), strings.TrimSpace(val)); err != nil {
				return p, err
			}
		}
	}
	return p, p.validate()
}

func kindList() string {
	kinds := []string{string(LocLoss), string(LocDelay), string(Outage), string(Bias), string(Churn), string(Fade), string(Noise),
		string(RPCLoss), string(RPCDelay), string(RPCPartition), string(RPCRestart)}
	sort.Strings(kinds)
	return strings.Join(kinds, "/")
}

func (p *Process) setParam(key, val string) error {
	switch key {
	case "node":
		n, err := strconv.ParseUint(val, 10, 16)
		if err != nil {
			return fmt.Errorf("node=%q: %v", val, err)
		}
		p.Node = uint16(n)
		p.HasNode = true
	case "at":
		return parseDur(val, key, &p.At)
	case "dur":
		return parseDur(val, key, &p.Dur)
	case "every":
		return parseDur(val, key, &p.Every)
	case "d":
		return parseDur(val, key, &p.D)
	case "p":
		return parseFinite(val, key, &p.P)
	case "m":
		return parseFinite(val, key, &p.M)
	case "db":
		return parseFinite(val, key, &p.DB)
	default:
		return fmt.Errorf("unknown parameter %q for %s", key, p.Kind)
	}
	return nil
}

// parseFinite rejects NaN and ±Inf as well as malformed numbers: NaN passes
// every range check in validate (all its comparisons are false), and a
// non-finite noise jump or fade turns every SINR it reaches into NaN.
func parseFinite(val, key string, into *float64) error {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("%s=%q: %v", key, val, err)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("%s=%q: must be finite", key, val)
	}
	*into = f
	return nil
}

func parseDur(val, key string, into *time.Duration) error {
	d, err := time.ParseDuration(val)
	if err != nil {
		return fmt.Errorf("%s=%q: %v", key, val, err)
	}
	if d < 0 {
		return fmt.Errorf("%s=%q: must not be negative", key, val)
	}
	*into = d
	return nil
}

func (p *Process) validate() error {
	switch p.Kind {
	case LocLoss:
		if p.P <= 0 || p.P > 1 {
			return fmt.Errorf("locloss needs p in (0,1], got %v", p.P)
		}
	case LocDelay:
		if p.D <= 0 {
			return fmt.Errorf("locdelay needs d > 0, got %v", p.D)
		}
	case Outage, Churn:
		if !p.HasNode {
			return fmt.Errorf("%s needs node=", p.Kind)
		}
		if !p.windowed() {
			return fmt.Errorf("%s needs dur > 0", p.Kind)
		}
	case Bias:
		if p.M <= 0 {
			return fmt.Errorf("bias needs m > 0, got %v", p.M)
		}
		if !p.windowed() {
			return fmt.Errorf("bias needs dur > 0")
		}
	case Fade:
		if p.DB <= 0 {
			return fmt.Errorf("fade needs db > 0, got %v", p.DB)
		}
		if !p.windowed() {
			return fmt.Errorf("fade needs dur > 0")
		}
	case Noise:
		if p.DB == 0 {
			return fmt.Errorf("noise needs db != 0")
		}
		if !p.windowed() {
			return fmt.Errorf("noise needs dur > 0")
		}
	case RPCLoss:
		if p.P <= 0 || p.P > 1 {
			return fmt.Errorf("rpcloss needs p in (0,1], got %v", p.P)
		}
	case RPCDelay:
		if p.D <= 0 {
			return fmt.Errorf("rpcdelay needs d > 0, got %v", p.D)
		}
	case RPCPartition, RPCRestart:
		if !p.windowed() {
			return fmt.Errorf("%s needs dur > 0", p.Kind)
		}
	}
	if p.Kind.IsRPC() && p.HasNode {
		return fmt.Errorf("%s is global (the control plane serves every station); node= is not allowed", p.Kind)
	}
	if p.Every > 0 && p.Every <= p.Dur {
		return fmt.Errorf("every=%v must exceed dur=%v (windows would overlap)", p.Every, p.Dur)
	}
	return nil
}
