// Package loc models the localization substrate CO-MAP consumes: every node
// reports its position to its AP and the positions are shared across nearby
// nodes (paper §IV-A). Since GPS and indoor localization give imperfect
// positions (the paper quotes ~13.7 m outdoor GPS error and room-level indoor
// accuracy), the registry injects a configurable uniform error into every
// report, exactly as the paper's NS-2 tolerance experiments do ("we add
// random error within a certain range to the coordinates of each node").
//
// Position updates follow the paper's mobility-management rule: a node
// re-reports only after moving more than a threshold distance (half the
// tolerable inaccuracy), which bounds the signalling overhead.
//
// Beyond the uniform-disc error the registry models an imperfect report
// *pipeline*: reports may commit only after a configurable latency, be
// dropped outright, carry a transient bias burst, or freeze entirely during
// a localization outage. Each committed fix carries its report time and
// error radius, so consumers (CO-MAP's location-health model) can reason
// about staleness instead of trusting every coordinate unconditionally.
package loc

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/frame"
	"repro/internal/geom"
)

// Provider exposes the reported (possibly erroneous, possibly stale)
// position of a node. CO-MAP's neighbor tables are built from a Provider.
type Provider interface {
	// Position returns the last reported position of id. ok is false when
	// the node never reported.
	Position(id frame.NodeID) (geom.Point, bool)
}

// Versioned is a Provider that counts changes to its answers, so a consumer
// may cache anything it derives from positions until the count moves.
type Versioned interface {
	Provider
	// Changes returns a counter that moves whenever Position may answer
	// differently than before. ok is false when the provider cannot tell;
	// nothing derived from its positions may then be cached.
	Changes() (n uint64, ok bool)
}

// Fix is one committed position report: the (erroneous) position itself,
// the virtual time it was measured, and the reported error radius of the
// localization source. Consumers derive the fix's age from ReportedAt.
type Fix struct {
	Pos geom.Point
	// ReportedAt is the virtual time the position was measured (not the
	// commit time: a delayed report is already stale when it lands). A
	// negative value marks a fix without report-time metadata — an oracle
	// position that consumers must treat as always fresh.
	ReportedAt time.Duration
	// ErrorRadiusMeters is the localization error bound the source reports
	// alongside the fix (the registry's configured error range).
	ErrorRadiusMeters float64
}

// FixProvider is a Provider that also exposes fix metadata (report age and
// error radius). CO-MAP's health model consults it; providers that do not
// implement it are treated as always-fresh oracles.
type FixProvider interface {
	Provider
	// Fix returns the full last committed fix of id.
	Fix(id frame.NodeID) (Fix, bool)
}

// PipelineFault decides the fate of one issued report: commit after delay
// (0 = immediately), or drop it entirely. The faults package installs
// implementations; a nil fault function is a perfect pipeline.
type PipelineFault func(id frame.NodeID) (delay time.Duration, drop bool)

// Registry is the in-simulation location service: it stores true positions,
// applies the error model at report time, and implements the
// movement-threshold update policy.
type Registry struct {
	rng *rand.Rand
	// errorRange is the radius of the uniform-disc error added to every
	// report, in meters (0 = perfect positions).
	errorRange float64
	// updateThreshold is the minimum movement since the last report that
	// triggers a new report, in meters.
	updateThreshold float64

	truth map[frame.NodeID]geom.Point
	// reported holds the committed fixes indexed by node ID; slots of
	// nodes without a fix have ok false.
	reported []reportedFix
	// changes counts the commits and deregistrations (Versioned).
	changes uint64
	// lastReportTrue remembers the true position at last report time, for
	// the movement-threshold rule.
	lastReportTrue map[frame.NodeID]geom.Point
	updates        int

	// Report-pipeline state (all optional; zero values = oracle pipeline).
	now      func() time.Duration
	schedule func(d time.Duration, fn func())
	fault    PipelineFault
	frozen   map[frame.NodeID]bool
	bias     map[frame.NodeID]geom.Vector
	dropped  int
	delayed  int

	// Ingest hooks (optional): onCommit fires after every committed fix and
	// onDeregister after every successful deregistration, so a control-plane
	// client can mirror the registry's committed state as a change stream.
	onCommit     func(id frame.NodeID, fix Fix)
	onDeregister func(id frame.NodeID)
}

// reportedFix is one slot of Registry.reported.
type reportedFix struct {
	fix Fix
	ok  bool
}

var (
	_ FixProvider = (*Registry)(nil)
	_ Versioned   = (*Registry)(nil)
)

// NewRegistry creates a registry with the given error radius and update
// threshold. rng drives the error sampling; it must not be shared with other
// consumers if reproducibility per subsystem is desired.
func NewRegistry(rng *rand.Rand, errorRangeMeters, updateThresholdMeters float64) *Registry {
	return &Registry{
		rng:             rng,
		errorRange:      errorRangeMeters,
		updateThreshold: updateThresholdMeters,
		truth:           make(map[frame.NodeID]geom.Point),
		lastReportTrue:  make(map[frame.NodeID]geom.Point),
	}
}

// Updates returns how many position reports have been issued — the paper's
// communication-overhead measure. Dropped and delayed reports count: the
// node spent the signalling either way.
func (r *Registry) Updates() int { return r.updates }

// DroppedReports and DelayedReports expose the pipeline-fault tallies.
func (r *Registry) DroppedReports() int { return r.dropped }
func (r *Registry) DelayedReports() int { return r.delayed }

// SetClock installs the virtual-time source used to stamp fixes. Without a
// clock every fix reads as reported at time zero (age never accumulates),
// which preserves the oracle behavior of health-unaware consumers.
func (r *Registry) SetClock(now func() time.Duration) { r.now = now }

// SetScheduler installs the event scheduler used to commit delayed reports
// (typically sim.Engine.After). Without one, delayed reports commit
// immediately (the delay is recorded but not realised).
func (r *Registry) SetScheduler(after func(d time.Duration, fn func())) { r.schedule = after }

// SetPipelineFault installs the report loss/delay process. nil restores the
// perfect pipeline.
func (r *Registry) SetPipelineFault(f PipelineFault) { r.fault = f }

// SetFrozen starts or ends a localization outage for id: while frozen the
// node's committed fix stops updating (its age accumulates) even though true
// movement is still tracked and the movement rule still burns report budget.
func (r *Registry) SetFrozen(id frame.NodeID, frozen bool) {
	if r.frozen == nil {
		r.frozen = make(map[frame.NodeID]bool)
	}
	if frozen {
		r.frozen[id] = true
	} else {
		delete(r.frozen, id)
	}
}

// SetBias adds a systematic offset to every subsequent report from id (a
// bias burst on top of the disc error); the zero vector clears it.
func (r *Registry) SetBias(id frame.NodeID, v geom.Vector) {
	if r.bias == nil {
		r.bias = make(map[frame.NodeID]geom.Vector)
	}
	if v.DX == 0 && v.DY == 0 {
		delete(r.bias, id)
	} else {
		r.bias[id] = v
	}
}

// Register sets a node's initial true position and issues its first report.
func (r *Registry) Register(id frame.NodeID, p geom.Point) {
	r.truth[id] = p
	r.report(id)
}

// Deregister removes a node entirely (station churn: it left the network).
// Its fix disappears — consumers must cope with a peer that no longer has a
// position. It reports whether the node was registered.
func (r *Registry) Deregister(id frame.NodeID) bool {
	_, ok := r.truth[id]
	if !ok {
		return false
	}
	delete(r.truth, id)
	if int(id) < len(r.reported) {
		r.reported[id] = reportedFix{}
	}
	r.changes++
	delete(r.lastReportTrue, id)
	if r.frozen != nil {
		delete(r.frozen, id)
	}
	if r.bias != nil {
		delete(r.bias, id)
	}
	if r.onDeregister != nil {
		r.onDeregister(id)
	}
	return true
}

// Move updates a node's true position; a new report is issued only if the
// node moved more than the update threshold since its last report.
func (r *Registry) Move(id frame.NodeID, p geom.Point) {
	r.truth[id] = p
	last, ok := r.lastReportTrue[id]
	if !ok {
		r.report(id)
		return
	}
	if last.DistanceTo(p) > r.updateThreshold {
		r.report(id)
	}
}

// ForceReport issues a report regardless of movement (e.g. on association or
// churn re-join). It reports whether the node is registered; unregistered
// nodes are a no-op and callers must check ok rather than assume a fix
// landed.
func (r *Registry) ForceReport(id frame.NodeID) (ok bool) {
	if _, ok := r.truth[id]; !ok {
		return false
	}
	r.report(id)
	return true
}

// StartHeartbeat schedules a periodic re-report of every registered node
// (the location service's keepalive). With a healthy pipeline this bounds
// every fix's age to roughly the interval, so CO-MAP's health model only
// trips during genuine loss, delay, or outage windows. Requires a scheduler;
// nodes are visited in ID order so the error-sampling RNG draws are
// reproducible.
func (r *Registry) StartHeartbeat(every time.Duration) {
	if r.schedule == nil || every <= 0 {
		return
	}
	var tick func()
	tick = func() {
		ids := r.IDs()
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			r.report(id)
		}
		r.schedule(every, tick)
	}
	r.schedule(every, tick)
}

// virtualNow returns the clock reading (zero without a clock).
func (r *Registry) virtualNow() time.Duration {
	if r.now == nil {
		return 0
	}
	return r.now()
}

// report pushes one position report into the pipeline: sample the erroneous
// fix now, then commit it immediately, after the fault-injected latency, or
// never.
func (r *Registry) report(id frame.NodeID) {
	p := r.truth[id]
	r.lastReportTrue[id] = p
	r.updates++
	if r.frozen[id] {
		// Localization outage: the fix source is down; nothing commits.
		return
	}
	fix := Fix{
		Pos:               r.addError(p).Add(r.bias[id]),
		ReportedAt:        r.virtualNow(),
		ErrorRadiusMeters: r.errorRange,
	}
	var delay time.Duration
	if r.fault != nil {
		d, drop := r.fault(id)
		if drop {
			r.dropped++
			return
		}
		delay = d
	}
	if delay <= 0 || r.schedule == nil {
		r.commit(id, fix)
		return
	}
	r.delayed++
	r.schedule(delay, func() { r.commit(id, fix) })
}

// commit lands a fix, unless a newer one already committed (delayed reports
// must not roll the table backwards).
func (r *Registry) commit(id frame.NodeID, fix Fix) {
	if _, registered := r.truth[id]; !registered {
		return // node left while the report was in flight
	}
	if cur, ok := r.Fix(id); ok && cur.ReportedAt > fix.ReportedAt {
		return
	}
	if int(id) >= len(r.reported) {
		r.reported = append(r.reported, make([]reportedFix, int(id)+1-len(r.reported))...)
	}
	r.reported[id] = reportedFix{fix: fix, ok: true}
	r.changes++
	if r.onCommit != nil {
		r.onCommit(id, fix)
	}
}

// SetOnCommit installs a hook invoked after every committed fix (not for
// reports dropped, superseded, or voided by deregistration). The hook sees
// exactly the registry's committed-state change stream.
func (r *Registry) SetOnCommit(fn func(id frame.NodeID, fix Fix)) { r.onCommit = fn }

// SetOnDeregister installs a hook invoked after every successful
// deregistration.
func (r *Registry) SetOnDeregister(fn func(id frame.NodeID)) { r.onDeregister = fn }

// addError perturbs p by a uniform sample from the disc of radius errorRange.
func (r *Registry) addError(p geom.Point) geom.Point {
	if r.errorRange <= 0 {
		return p
	}
	// Uniform on the disc: radius sqrt(u)*R, angle uniform.
	radius := r.errorRange * math.Sqrt(r.rng.Float64())
	theta := 2 * math.Pi * r.rng.Float64()
	return p.Add(geom.Vec(radius*math.Cos(theta), radius*math.Sin(theta)))
}

// Position implements Provider: the last reported (erroneous, possibly
// stale) position.
func (r *Registry) Position(id frame.NodeID) (geom.Point, bool) {
	fix, ok := r.Fix(id)
	return fix.Pos, ok
}

// Fix implements FixProvider: the last committed fix with its metadata.
func (r *Registry) Fix(id frame.NodeID) (Fix, bool) {
	if int(id) >= len(r.reported) {
		return Fix{}, false
	}
	s := r.reported[id]
	return s.fix, s.ok
}

// Changes implements Versioned: it moves on every committed fix and every
// deregistration.
func (r *Registry) Changes() (uint64, bool) { return r.changes, true }

// IDs returns the registered node IDs in unspecified order.
func (r *Registry) IDs() []frame.NodeID {
	out := make([]frame.NodeID, 0, len(r.truth))
	for id := range r.truth {
		out = append(out, id)
	}
	return out
}

// Static is a fixed Provider for tests and hand-built scenarios.
type Static map[frame.NodeID]geom.Point

var _ Provider = Static{}

// Position implements Provider.
func (s Static) Position(id frame.NodeID) (geom.Point, bool) {
	p, ok := s[id]
	return p, ok
}
