package comap

import (
	"time"

	"repro/internal/frame"
	"repro/internal/loc"
)

// CO-MAP's location-health model: instead of trusting every coordinate
// unconditionally, a health-gated Judge tracks the age and reported error
// radius of each peer fix and degrades gracefully when the location
// substrate misbehaves. Decisions involving a fix past the confidence bound
// fall back to plain DCF (deny concurrent transmission, default packet size
// and contention window); younger-but-stale fixes inflate the SIR safety
// margin so marginal concurrent pairings are vetoed before they corrupt
// frames; and link geometry is evaluated at worst-case distances (own link
// longer, interferer closer, each by the reported error radius) instead of
// the nominal reported points.
const (
	// MaxFixAge is the confidence bound: a decision involving a fix older
	// than this (or a peer with no fix at all) falls back to plain DCF.
	// Three in-band refresh intervals.
	MaxFixAge = 3 * time.Second
	// StalenessMarginDBPerSec inflates the SIR safety margin by this many dB
	// per second of the oldest involved fix's age, so staler positions need
	// a larger predicted advantage before concurrency is granted.
	StalenessMarginDBPerSec = 1.0
)

// SetHealth turns on the location-health gate; now supplies virtual time
// for fix-age computation. Without it the agent trusts every fix.
func (a *Agent) SetHealth(now func() time.Duration) { a.judge.Now = now }

// fixOf resolves a peer's fix through the provider. Providers without fix
// metadata (plain loc.Provider) are treated as always-fresh oracles with no
// reported error: their fixes carry a negative ReportedAt, which
// Judge.FixHealth reads as age zero rather than an age growing with the sim
// clock.
func (a *Agent) fixOf(id frame.NodeID) (loc.Fix, bool) {
	if fp, ok := a.locs.(loc.FixProvider); ok {
		return fp.Fix(id)
	}
	p, ok := a.locs.Position(id)
	return loc.Fix{Pos: p, ReportedAt: -1}, ok
}
