package comap

import (
	"time"

	"repro/internal/frame"
	"repro/internal/loc"
)

// HealthPolicy is CO-MAP's location-health model: instead of trusting every
// coordinate unconditionally, the agent tracks the age and reported error
// radius of each peer fix and degrades gracefully when the location substrate
// misbehaves. Decisions involving a fix past the confidence bound fall back
// to plain DCF (deny concurrent transmission, default packet size and
// contention window); younger-but-stale fixes inflate the SIR safety margin
// so marginal concurrent pairings are vetoed before they corrupt frames.
type HealthPolicy struct {
	// MaxFixAge is the confidence bound: a decision involving a fix older
	// than this (or a peer with no fix at all) falls back to plain DCF.
	MaxFixAge time.Duration
	// StalenessMarginDBPerSec inflates the SIR safety margin by this many dB
	// per second of the oldest involved fix's age, so staler positions need a
	// larger predicted advantage before concurrency is granted.
	StalenessMarginDBPerSec float64
	// UseErrorRadius, when set, evaluates link geometry at worst-case
	// distances (own link longer, interferer closer, each by the reported
	// error radius) instead of the nominal reported points.
	UseErrorRadius bool
}

// DefaultHealthPolicy returns the policy netsim enables when fault injection
// is active: fall back to DCF once a fix is older than three in-band refresh
// intervals, and demand 1 dB of extra margin per second of staleness.
func DefaultHealthPolicy() HealthPolicy {
	return HealthPolicy{
		MaxFixAge:               3 * time.Second,
		StalenessMarginDBPerSec: 1.0,
		UseErrorRadius:          true,
	}
}

// Enabled reports whether the policy gates anything.
func (h HealthPolicy) Enabled() bool { return h.MaxFixAge > 0 }

// SetHealth enables the location-health model. now supplies virtual time for
// fix-age computation; a zero policy (or nil clock) disables gating and
// restores the oracle-trusting behavior.
func (a *Agent) SetHealth(p HealthPolicy, now func() time.Duration) {
	a.judge.Health = p
	a.judge.Now = now
}

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
