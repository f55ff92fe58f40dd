package comap

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/frame"
	"repro/internal/loc"
	"repro/internal/metrics"
	"repro/internal/phy"
	"repro/internal/trace"
)

// Link identifies a directed transmission pair.
type Link struct {
	Src frame.NodeID
	Dst frame.NodeID
}

// CoOccurrenceMap caches, per ongoing link, which of this node's receivers
// it may transmit to concurrently (paper §IV-C2). It is built lazily as the
// network operates: the first detection of a link triggers validation by
// computation, subsequent ones are table lookups. Initially empty — CO-MAP
// needs no off-line site survey.
type CoOccurrenceMap struct {
	entries map[Link]map[frame.NodeID]bool
	hits    int
	misses  int
}

// NewCoOccurrenceMap returns an empty map.
func NewCoOccurrenceMap() *CoOccurrenceMap {
	return &CoOccurrenceMap{entries: make(map[Link]map[frame.NodeID]bool)}
}

// Lookup returns the cached verdict for transmitting to myDst while ongoing
// is on the air. found is false when the pair was never validated.
func (c *CoOccurrenceMap) Lookup(ongoing Link, myDst frame.NodeID) (allowed, found bool) {
	row, ok := c.entries[ongoing]
	if !ok {
		c.misses++
		return false, false
	}
	allowed, found = row[myDst]
	if found {
		c.hits++
	} else {
		c.misses++
	}
	return allowed, found
}

// Insert records a validation verdict.
func (c *CoOccurrenceMap) Insert(ongoing Link, myDst frame.NodeID, allowed bool) {
	row, ok := c.entries[ongoing]
	if !ok {
		row = make(map[frame.NodeID]bool)
		c.entries[ongoing] = row
	}
	row[myDst] = allowed
}

// Len returns the number of ongoing-link entries.
func (c *CoOccurrenceMap) Len() int { return len(c.entries) }

// Hits and Misses expose cache efficiency for the overhead evaluation.
func (c *CoOccurrenceMap) Hits() int   { return c.hits }
func (c *CoOccurrenceMap) Misses() int { return c.misses }

// Invalidate clears the map; CO-MAP calls it when positions change (the
// paper's rapid-update property: the map is cheap to rebuild because entries
// are recomputed lazily from fresh positions).
func (c *CoOccurrenceMap) Invalidate() {
	c.entries = make(map[Link]map[frame.NodeID]bool)
}

// InvalidateNode clears only the verdicts involving id — rows whose ongoing
// link has id as an endpoint, and id's column in every remaining row. Station
// churn calls it so one node leaving or re-joining does not throw away the
// whole map. Hit/miss counters survive, like with Invalidate.
func (c *CoOccurrenceMap) InvalidateNode(id frame.NodeID) {
	for l, row := range c.entries {
		if l.Src == id || l.Dst == id {
			delete(c.entries, l)
			continue
		}
		delete(row, id)
		if len(row) == 0 {
			delete(c.entries, l)
		}
	}
}

// Agent is one node's CO-MAP instance. It implements mac.ConcurrencyPolicy
// via the co-occurrence map, mac.RateCapper via position-predicted SIR, and
// provides the hidden-terminal-aware transmission settings.
type Agent struct {
	id   frame.NodeID
	locs loc.Provider
	cmap *CoOccurrenceMap
	// judge holds the decision inputs: the analysis model, the rate set
	// (SetRates) and the location-health clock (SetHealth).
	judge Judge
	// seen records when each foreign link was last observed on the air
	// (from its discovery header); it drives persistent concurrency. Kept
	// sorted by link (Src, then Dst), so every walk is in link order.
	seen []seenLink

	// fixFn is the agent's provider view as a FixFunc (bound once so the
	// hot path does not allocate a method-value closure per decision).
	fixFn FixFunc

	// versioned is locs as a loc.Versioned, nil when it has no change
	// counter; env memoises CountEnvironment per destination against it.
	versioned loc.Versioned
	env       []envMemo

	// remote, when set, supplies every verdict through the mapsvc control
	// plane instead of deciding in-process (see SetRemote).
	remote RemoteVerdicts

	// Telemetry (nil-safe; see SetMetrics).
	mHeaders       *metrics.Counter
	mHit           *metrics.Counter
	mMiss          *metrics.Counter
	mAllow         *metrics.Counter
	mDeny          *metrics.Counter
	mPersistOK     *metrics.Counter
	mPersistNo     *metrics.Counter
	mInvalidate    *metrics.Counter
	mFallback      *metrics.Counter
	mFallbackAdapt *metrics.Counter
	mMapSize       *metrics.Gauge
	mEnvHidden     *metrics.Gauge
	mEnvCont       *metrics.Gauge

	tr *trace.Emitter
}

// NewAgent builds an agent for node id over the given analysis model and
// location provider.
func NewAgent(id frame.NodeID, model Model, locs loc.Provider) *Agent {
	a := &Agent{
		id:    id,
		locs:  locs,
		cmap:  NewCoOccurrenceMap(),
		judge: Judge{Model: model},
	}
	a.fixFn = a.fixOf
	a.versioned, _ = locs.(loc.Versioned)
	return a
}

// SetMetrics attaches a telemetry registry: discovery-header observations
// ("comap.header.observed"), co-occurrence-map hit/miss/verdict counters and
// size gauge, persistent-concurrency (ET bypass) decisions and the
// hidden-terminal environment gauges. All recording is nil-safe, so agents
// without a registry pay nothing.
func (a *Agent) SetMetrics(reg *metrics.Registry) {
	a.mHeaders = reg.Counter("comap.header.observed")
	a.mHit = reg.Counter("comap.map.hit")
	a.mMiss = reg.Counter("comap.map.miss")
	a.mAllow = reg.Counter("comap.validate.allowed")
	a.mDeny = reg.Counter("comap.validate.denied")
	a.mPersistOK = reg.Counter("comap.persistent.ok")
	a.mPersistNo = reg.Counter("comap.persistent.blocked")
	a.mInvalidate = reg.Counter("comap.map.invalidate")
	a.mFallback = reg.Counter("comap.fallback.dcf")
	a.mFallbackAdapt = reg.Counter("comap.fallback.adapt")
	a.mMapSize = reg.Gauge("comap.map.links")
	a.mEnvHidden = reg.Gauge("comap.env.hidden")
	a.mEnvCont = reg.Gauge("comap.env.contenders")
}

// SetTrace attaches a decision-event emitter: concurrency grant/deny
// verdicts ("co.grant"/"co.deny") and hidden-terminal adaptation changes
// ("co.adapt") flow into it. A nil emitter (tracing off) costs nothing.
func (a *Agent) SetTrace(em *trace.Emitter) { a.tr = em }

// emitVerdict records one concurrency-validation outcome. req is the
// control-plane request ID that produced the verdict (0 for local decisions
// and local cache hits), so grant/deny events join their RPC spans.
func (a *Agent) emitVerdict(ongoing Link, myDst frame.NodeID, allowed bool, provenance string, req uint64) {
	if !a.tr.Enabled() {
		return
	}
	kind := trace.KindCoGrant
	if !allowed {
		kind = trace.KindCoDeny
	}
	a.tr.Emit(trace.Event{
		Kind: kind, Src: ongoing.Src, Dst: ongoing.Dst,
		OurDst: myDst, Reason: provenance, Req: req,
	})
}

// fallbackToDCF records one decision where the agent refused to act on
// degraded input and behaved like plain DCF instead. reason distinguishes an
// unhealthy fix from an unreachable control plane; req is the control-plane
// request ID behind the decision (0 when no RPC was involved).
func (a *Agent) fallbackToDCF(ongoing Link, myDst frame.NodeID, reason string, req uint64) {
	a.mFallback.Inc()
	if !a.tr.Enabled() {
		return
	}
	a.tr.Emit(trace.Event{
		Kind: trace.KindCoFallback, Src: ongoing.Src, Dst: ongoing.Dst,
		OurDst: myDst, Reason: reason, Req: req,
	})
}

// TraceAdaptation records a hidden-terminal packet-size/CW adaptation
// decision ("co.adapt") for the link a.id→dst; the caller invokes it when
// the chosen setting changes.
func (a *Agent) TraceAdaptation(dst frame.NodeID, hidden, contenders, cw, payloadBytes int) {
	if !a.tr.Enabled() {
		return
	}
	a.tr.Emit(trace.Event{
		Kind: trace.KindCoAdapt, OurDst: dst,
		Hidden: hidden, Contenders: contenders,
		CW: cw, Payload: payloadBytes,
	})
}

// ObserveLink records that the link src→dst was seen transmitting at the
// given virtual time (the MAC decoded its discovery header).
func (a *Agent) ObserveLink(src, dst frame.NodeID, now time.Duration) {
	a.mHeaders.Inc()
	l := Link{Src: src, Dst: dst}
	i, found := a.seenIndex(l)
	if !found {
		a.seen = slices.Insert(a.seen, i, seenLink{link: l})
	}
	a.seen[i].at = now
}

// seenLink is one entry of Agent.seen.
type seenLink struct {
	link Link
	at   time.Duration
}

// seenIndex finds l in the sorted seen table: its index, or where it would
// be inserted.
func (a *Agent) seenIndex(l Link) (int, bool) {
	return slices.BinarySearchFunc(a.seen, l, func(e seenLink, l Link) int { return compareLinks(e.link, l) })
}

// compareLinks orders links by Src, then Dst.
func compareLinks(x, y Link) int {
	if x.Src != y.Src {
		return cmp.Compare(x.Src, y.Src)
	}
	return cmp.Compare(x.Dst, y.Dst)
}

// DefaultLinkMaxAge is how long an observed link stays "active" for the
// persistent-concurrency decision.
const DefaultLinkMaxAge = 500 * time.Millisecond

// PersistentConcurrencyOK reports whether carrier sense can be persistently
// bypassed for transmissions to myDst: every recently observed foreign link
// must be coexistence-validated, and none of them may involve this node (we
// cannot transmit over our own inbound traffic). This mirrors the paper's
// testbed implementation, which raises the validated exposed terminal's CCA
// threshold so its transmissions proceed regardless of the ongoing one.
func (a *Agent) PersistentConcurrencyOK(myDst frame.NodeID, now time.Duration) bool {
	ok := a.persistentConcurrencyOK(myDst, now)
	if ok {
		a.mPersistOK.Inc()
	} else {
		a.mPersistNo.Inc()
	}
	return ok
}

func (a *Agent) persistentConcurrencyOK(myDst frame.NodeID, now time.Duration) bool {
	// The loop expires stale entries, may return early, and feeds the
	// hit/miss telemetry through Allowed — all order-sensitive side
	// effects, so it walks the links in their sorted order, never a map's.
	active := 0
	for i := 0; i < len(a.seen); {
		l := a.seen[i].link
		if now-a.seen[i].at > DefaultLinkMaxAge {
			a.seen = slices.Delete(a.seen, i, i+1)
			continue
		}
		i++
		active++
		if l.Src == a.id || l.Dst == a.id || l.Src == myDst || l.Dst == myDst {
			return false
		}
		if !a.Allowed(l.Src, l.Dst, myDst) {
			return false
		}
	}
	return active > 0
}

// Map exposes the co-occurrence map (for diagnostics and tests).
func (a *Agent) Map() *CoOccurrenceMap { return a.cmap }

// concurrencyFloorFactor is the economy threshold for concurrent
// transmission: overlapping is only worthwhile when each link still supports
// at least this fraction of the bitrate it would get alone — otherwise the
// serialized CSMA share (roughly half the clean rate) is better. This
// rate-aware refinement extends the paper's eq.-(3) validation, which checks
// only the lowest-rate SIR threshold.
const concurrencyFloorFactor = 0.5

// Allowed implements mac.ConcurrencyPolicy: on detecting the ongoing
// transmission ongoingSrc→ongoingDst, consult the co-occurrence map; on a
// miss, validate by computation (eq. 3 both ways, plus the rate-economy
// check when a rate set is installed) and insert the verdict. With a control
// plane attached (SetRemote) the verdict comes from it instead; either way
// one switch on the verdict's source does the bookkeeping.
func (a *Agent) Allowed(ongoingSrc, ongoingDst, myDst frame.NodeID) bool {
	ongoing := Link{Src: ongoingSrc, Dst: ongoingDst}
	if a.judge.healthEnabled() {
		// Health gate: when any involved fix is missing or past the
		// confidence bound, behave like plain DCF (no concurrent TX). The
		// verdict is NOT cached — transient ill-health must not poison the
		// persistent co-occurrence map.
		if _, _, healthy := a.judge.FixHealth(a.fixFn, a.id, myDst, ongoingSrc, ongoingDst); !healthy {
			a.fallbackToDCF(ongoing, myDst, "unhealthy_fix", 0)
			return false
		}
	}
	cachedAllowed, found := a.cmap.Lookup(ongoing, myDst)
	var v RemoteVerdict
	switch {
	case a.remote != nil:
		v = a.remote.Verdict(a.id, ongoing, myDst, cachedAllowed, found)
	case found:
		v = RemoteVerdict{Source: RemoteCachedFresh, Allowed: cachedAllowed}
	default:
		v = RemoteVerdict{Source: RemoteValidated, Allowed: a.judge.Decide(a.fixFn, a.id, ongoing, myDst)}
	}
	switch v.Source {
	case RemoteCachedFresh:
		a.mHit.Inc()
		a.emitVerdict(ongoing, myDst, v.Allowed, "cached", v.Req)
		return v.Allowed
	case RemoteValidated:
		a.mMiss.Inc()
		if v.Unhealthy {
			a.fallbackToDCF(ongoing, myDst, "unhealthy_fix", v.Req)
			return false
		}
		a.cmap.Insert(ongoing, myDst, v.Allowed)
		if v.Allowed {
			a.mAllow.Inc()
		} else {
			a.mDeny.Inc()
		}
		a.mMapSize.Set(float64(a.cmap.Len()))
		a.emitVerdict(ongoing, myDst, v.Allowed, "validated", v.Req)
		return v.Allowed
	case RemoteStale:
		a.emitVerdict(ongoing, myDst, v.Allowed, "stale", v.Req)
		return v.Allowed
	case RemoteCoarse:
		a.emitVerdict(ongoing, myDst, v.Allowed, "coarse", v.Req)
		return v.Allowed
	default:
		a.fallbackToDCF(ongoing, myDst, "control_plane_down", v.Req)
		return false
	}
}

// minWorstCaseMeters floors worst-case interferer distance so error radii
// larger than the separation cannot produce a non-positive distance.
const minWorstCaseMeters = 1.0

// OnPositionsChanged invalidates cached verdicts after location updates.
func (a *Agent) OnPositionsChanged() {
	a.cmap.Invalidate()
	a.mInvalidate.Inc()
	a.mMapSize.Set(0)
}

// OnStationChanged invalidates only the verdicts involving id — used for
// station churn, where one node leaving or re-joining must not discard the
// whole co-occurrence map. Observed-link state involving id is dropped too,
// so persistent concurrency cannot keep bypassing carrier sense based on a
// link that no longer exists.
func (a *Agent) OnStationChanged(id frame.NodeID) {
	a.cmap.InvalidateNode(id)
	a.seen = slices.DeleteFunc(a.seen, func(e seenLink) bool { return e.link.Src == id || e.link.Dst == id })
	a.mInvalidate.Inc()
	a.mMapSize.Set(float64(a.cmap.Len()))
}

// SetRates installs the PHY rate set used by CapRate. The slice is copied.
func (a *Agent) SetRates(rates []phy.Rate) {
	a.judge.Rates = slices.Clone(rates)
}

// CapRate implements mac.RateCapper: while the ongoing link is on the air,
// the concurrent transmission uses the fastest rate whose SIR requirement is
// met by the position-predicted mean SIR at our receiver, with one composite
// shadowing deviation (√2·σ) of margin. CO-MAP validated the pairing at the
// lowest rate, so the slowest rate is the safe fallback ("it can transmit
// simultaneously with a higher data rate if it is located further away",
// paper §VI-A).
func (a *Agent) CapRate(ongoingSrc, _ /*ongoingDst*/, myDst frame.NodeID, chosen phy.Rate) phy.Rate {
	if len(a.judge.Rates) == 0 {
		return chosen
	}
	sir, _, ok := a.judge.predictSIR(a.fixFn, a.id, myDst, ongoingSrc)
	if !ok {
		if !a.judge.healthEnabled() {
			// Only a missing fix fails the prediction with gating off:
			// trust the rate controller, as without CO-MAP.
			return chosen
		}
		// Degraded mode: a missing or unhealthy fix makes the SIR
		// prediction meaningless; the validated-at-lowest-rate fallback
		// is safe.
		return a.judge.slowestRate()
	}
	best := a.judge.slowestRate()
	for _, rt := range a.judge.Rates {
		if rt.MinSIRdB <= sir &&
			rt.BitsPerSec > best.BitsPerSec &&
			rt.BitsPerSec <= chosen.BitsPerSec {
			best = rt
		}
	}
	return best
}

// CountEnvironment returns the number of potential hidden terminals and
// contending nodes of the link a.id→dst among the candidate senders. Under
// the health model, an unhealthy fix on either endpoint falls the link back
// to default transmission settings (no HT-aware adaptation: the paper's
// h=0 defaults), and candidates with unhealthy fixes are excluded rather
// than counted from garbage coordinates.
func (a *Agent) CountEnvironment(dst frame.NodeID, candidates []frame.NodeID) (hidden, contenders int) {
	if a.judge.healthEnabled() {
		if _, _, healthy := a.judge.FixHealth(a.fixFn, a.id, dst); !healthy {
			a.mFallbackAdapt.Inc()
			a.mEnvHidden.Set(0)
			a.mEnvCont.Set(0)
			return 0, 0
		}
		// Fix age moves with the clock, so the healthy set can change while
		// no position does; the memo compares that set, not the input.
		candidates = a.healthyOnly(candidates)
	}
	hidden, contenders = a.memoEnvironment(dst, candidates)
	a.mEnvHidden.Set(float64(hidden))
	a.mEnvCont.Set(float64(contenders))
	return hidden, contenders
}

// envMemo is CountEnvironment's memo for one destination: the counts, valid
// while the provider's change counter and the candidate set are as recorded.
type envMemo struct {
	dst                frame.NodeID
	changes            uint64
	candidates         []frame.NodeID
	hidden, contenders int
}

// memoEnvironment returns countEnvironment's counts, reusing the last ones
// for dst when no position and no candidate has changed since. The counts
// are a pure function of the positions, so the memo cannot change them.
func (a *Agent) memoEnvironment(dst frame.NodeID, candidates []frame.NodeID) (hidden, contenders int) {
	var changes uint64
	ok := false
	if a.versioned != nil {
		changes, ok = a.versioned.Changes()
	}
	if !ok {
		return a.countEnvironment(dst, candidates)
	}
	var m *envMemo
	for i := range a.env {
		if a.env[i].dst == dst {
			m = &a.env[i]
			break
		}
	}
	if m == nil {
		a.env = append(a.env, envMemo{dst: dst})
		m = &a.env[len(a.env)-1]
	} else if m.changes == changes && slices.Equal(m.candidates, candidates) {
		return m.hidden, m.contenders
	}
	m.hidden, m.contenders = a.countEnvironment(dst, candidates)
	m.changes = changes
	m.candidates = append(m.candidates[:0], candidates...)
	return m.hidden, m.contenders
}

// countEnvironment evaluates the hidden-terminal and contention models.
func (a *Agent) countEnvironment(dst frame.NodeID, candidates []frame.NodeID) (hidden, contenders int) {
	hidden = len(a.judge.Model.HiddenTerminals(a.locs, a.id, dst, candidates))
	contenders = len(a.judge.Model.Contenders(a.locs, a.id, candidates))
	return hidden, contenders
}

// healthyOnly filters candidates down to those with healthy fixes.
func (a *Agent) healthyOnly(ids []frame.NodeID) []frame.NodeID {
	out := make([]frame.NodeID, 0, len(ids))
	for _, id := range ids {
		if _, _, healthy := a.judge.FixHealth(a.fixFn, id); healthy {
			out = append(out, id)
		}
	}
	return out
}
