package comap

import "repro/internal/frame"

// RemoteSource tells the agent which degradation-ladder rung produced a
// remote verdict, so it can update the right counters and trace provenance.
type RemoteSource int

// The ladder rungs a remote verdict can come from, healthiest first.
const (
	// RemoteCachedFresh: the agent's local co-occurrence map had the
	// verdict and the control plane is healthy — identical to a local hit.
	RemoteCachedFresh RemoteSource = iota
	// RemoteValidated: the control plane computed a fresh verdict within
	// the call deadline — identical to a local miss+validate.
	RemoteValidated
	// RemoteStale: the control plane is degraded; the client served its
	// cached-but-stale verdict computed with widened error-radius margins.
	RemoteStale
	// RemoteCoarse: no usable cache entry; the client fell back to coarse
	// registry-only geometry over its local fix view.
	RemoteCoarse
	// RemoteUnavailable: the ladder bottomed out — behave like plain DCF.
	RemoteUnavailable
)

// RemoteVerdict is one control-plane answer.
type RemoteVerdict struct {
	Source RemoteSource
	// Allowed is the concurrency verdict (meaningless for
	// RemoteUnavailable, and for RemoteValidated with Unhealthy set).
	Allowed bool
	// Unhealthy marks a Validated answer where the service's health gate
	// tripped: the agent falls back to DCF without caching, mirroring the
	// local unhealthy_fix path.
	Unhealthy bool
	// Req is the control-plane request ID that decided (or, on the
	// degraded rungs, failed to decide) this verdict; 0 when no RPC was
	// issued. The agent stamps it into its trace events so the analyzer
	// can stitch MAC-level grant/deny decisions to RPC spans.
	Req uint64
}

// RemoteVerdicts is the control-plane client interface (mapsvc.Client).
// cachedAllowed and found are the agent's one co-occurrence-map lookup for
// the decision: the lookup mutates the map's hit/miss counters, which are
// part of the deterministic state digest, so the agent makes it exactly once
// and hands the client its result.
type RemoteVerdicts interface {
	Verdict(observer frame.NodeID, ongoing Link, myDst frame.NodeID, cachedAllowed, found bool) RemoteVerdict
}

// SetRemote routes every verdict through the mapsvc control plane. The local
// map stays the agent's digested state: the agent looks the decision up in
// it and hands the result to the client, which answers from it while the
// control plane is healthy; a validated answer is inserted exactly like a
// local validation. At a zero-fault spec the client answers only
// CachedFresh/Validated, making counters, trace events and map state
// byte-identical to in-process decisions; the degraded sources only appear
// once RPC faults push the client down the ladder. Nil restores fully
// in-process operation.
func (a *Agent) SetRemote(r RemoteVerdicts) { a.remote = r }
