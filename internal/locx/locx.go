// Package locx implements CO-MAP's in-band location exchange (paper §IV-A
// and §V): every client measures its own position (with localization error)
// and reports it to its AP in a LocationBeacon frame; APs re-broadcast the
// positions they know, one beacon per node, so that every station within
// range builds a neighbor table covering its 2-hop neighborhood. A busy AP
// rarely decodes another cell (it is locked onto its own clients' frames),
// so clients that overhear another cell bridge the two (see forwardNext).
// The paper's overhead argument — "the location exchange can be done with
// little communication overhead" — becomes measurable: the exchange rides
// the same simulated MAC as data traffic and its frames are counted.
//
// A locx.Node is a loc.Provider, so CO-MAP agents can run directly on the
// learned (rather than oracle) positions, including their staleness and
// error.
package locx

import (
	"slices"
	"time"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/loc"
	"repro/internal/mac"
	"repro/internal/sim"
)

// The exchange's timing and the paper's mobility-management rule.
const (
	// reportInterval is how often a client checks whether its position
	// moved enough to re-report (the movement check itself is free; only
	// actual reports cost airtime).
	reportInterval = 250 * time.Millisecond
	// broadcastInterval is how often an AP re-broadcasts one neighbor's
	// position (round-robin over its table).
	broadcastInterval = 100 * time.Millisecond
	// updateThresholdMeters is the paper's mobility-management rule: a
	// client re-reports only after moving more than this distance.
	updateThresholdMeters = 1.0
	// refreshInterval forces a client re-report even without movement, so
	// a lost beacon (e.g. the association-time burst colliding) cannot
	// leave neighbors blind forever.
	refreshInterval = time.Second
)

// Node is one station's location-exchange endpoint and neighbor table.
// LocationBeacon frames carry the position owner's ID in the Seq field so
// APs can relay third-party positions.
type Node struct {
	eng *sim.Engine
	m   *mac.MAC
	// errorRadius is the localization error bound attached to every fix
	// this node learns or reports (typically the registry's error range);
	// zero means the source reports no error bound.
	errorRadius float64
	// measure returns this node's current measured position (already
	// containing localization error) — typically loc.Registry.Position.
	measure func() (geom.Point, bool)
	isAP    bool
	apID    frame.NodeID

	table map[frame.NodeID]loc.Fix
	// changes counts the table writes that moved or added a position, and
	// the removals (loc.Versioned).
	changes        uint64
	lastReported   geom.Point
	lastReportTime time.Duration
	hasReported    bool
	// announced is set once a client hears its AP re-broadcast the position
	// it last reported: reports are not acknowledged, so until then the
	// client re-reports every reportInterval.
	announced bool
	rrOrder   []frame.NodeID
	rr        int

	// carried records, on a client, which sides of the bridge have carried
	// each owner's position (fromAP, fromCell); forwarding stops once both
	// have. otherCell is set by the first beacon from another cell.
	carried   map[frame.NodeID]uint8
	otherCell bool
	relayNext frame.NodeID

	// lossFn, when set, decides per outgoing beacon whether the in-band
	// report is lost (the airtime is spent but no receiver learns from it).
	// The faults layer installs it.
	lossFn func() bool

	beaconsSent int
	beaconsLost int
	bytesSent   int64
	tickEv      sim.Handle
}

var (
	_ loc.FixProvider = (*Node)(nil)
	_ loc.Versioned   = (*Node)(nil)
)

// NewClient creates the exchange endpoint of a client associated with apID.
// measure supplies the client's own (noisy) position fix; errorRadius is
// the error bound attached to every fix the node learns or reports.
func NewClient(eng *sim.Engine, m *mac.MAC, apID frame.NodeID, measure func() (geom.Point, bool), errorRadius float64) *Node {
	return &Node{
		eng:         eng,
		m:           m,
		errorRadius: errorRadius,
		measure:     measure,
		apID:        apID,
		table:       make(map[frame.NodeID]loc.Fix),
		carried:     make(map[frame.NodeID]uint8),
	}
}

// NewAP creates the exchange endpoint of an access point.
func NewAP(eng *sim.Engine, m *mac.MAC, measure func() (geom.Point, bool), errorRadius float64) *Node {
	return &Node{
		eng:         eng,
		m:           m,
		errorRadius: errorRadius,
		measure:     measure,
		isAP:        true,
		table:       make(map[frame.NodeID]loc.Fix),
	}
}

// Start begins the periodic reporting (clients) or re-broadcasting (APs).
// Call after the MAC hooks are wired so beacons flow. The first tick is
// staggered by the node ID (a few milliseconds) so association-time beacons
// do not all collide.
func (n *Node) Start() {
	n.learnSelf()
	n.eng.AfterTagged(time.Duration(n.m.ID()%32)*2*time.Millisecond, sim.TagLocx, int32(n.m.ID()), func() {
		n.tick()
		n.scheduleTick()
	})
}

// SetLossFn installs the in-band report-loss process: when it returns true
// for an outgoing beacon, the beacon is lost (its overhead is still counted
// — the node transmitted it — but no neighbor table learns from it). nil
// restores lossless beacons. The faults layer drives this off a dedicated
// seeded stream so runs stay reproducible.
func (n *Node) SetLossFn(f func() bool) { n.lossFn = f }

// learnSelf refreshes this node's own fix in its table.
func (n *Node) learnSelf() (geom.Point, bool) {
	pos, ok := n.measure()
	if ok {
		n.learn(n.m.ID(), pos)
	}
	return pos, ok
}

// Stop cancels the periodic work.
func (n *Node) Stop() {
	if n.tickEv.Active() {
		n.eng.Cancel(n.tickEv)
		n.tickEv = sim.Handle{}
	}
}

func (n *Node) scheduleTick() {
	d := reportInterval
	if n.isAP {
		d = broadcastInterval
	}
	n.tickEv = n.eng.AfterTagged(d, sim.TagLocx, int32(n.m.ID()), func() {
		n.tick()
		n.scheduleTick()
	})
}

func (n *Node) tick() {
	if n.isAP {
		n.broadcastNext()
		return
	}
	n.maybeReport()
}

// maybeReport sends the client's own position to its AP if it moved beyond
// the update threshold, was never reported, or was not yet announced by the
// AP; otherwise it forwards one position for the bridge.
func (n *Node) maybeReport() {
	pos, ok := n.learnSelf()
	if !ok {
		return
	}
	moved := !n.hasReported || n.lastReported.DistanceTo(pos) > updateThresholdMeters
	stale := n.eng.Now()-n.lastReportTime >= refreshInterval
	if n.hasReported && !moved && !stale && n.announced {
		n.forwardNext()
		return
	}
	if !n.send(n.apID, n.m.ID(), pos) {
		return // queue full: try again next interval
	}
	if moved {
		n.announced = false
	}
	n.lastReported = pos
	n.lastReportTime = n.eng.Now()
	n.hasReported = true
}

// send enqueues a beacon carrying owner's position to dst, honoring the
// injected loss process. It reports whether the beacon counts as sent (lost
// beacons do: the airtime was spent, the information just never arrived).
func (n *Node) send(dst, owner frame.NodeID, pos geom.Point) bool {
	f := frame.Frame{Kind: frame.LocationBeacon, Dst: dst, Seq: uint16(owner), X: pos.X, Y: pos.Y}
	if n.lossFn != nil && n.lossFn() {
		n.beaconsLost++
	} else if err := n.m.Enqueue(f); err != nil {
		return false
	}
	n.beaconsSent++
	n.bytesSent += int64(f.AirBytes())
	return true
}

// The sides of the bridge a client tracks per owner.
const (
	fromAP   uint8 = 1 << iota // the client's AP announced the owner
	fromCell                   // a beacon of another cell carried it
)

// forwardNext sends its AP the next position, in ID order after the last
// one forwarded, that only one side of the bridge has carried: heard from
// another cell but not yet announced by the AP, or announced by the AP but
// not yet heard from another cell. The AP and the other cell's listeners
// both hear it.
func (n *Node) forwardNext() {
	if !n.otherCell {
		return
	}
	var pending []frame.NodeID
	for id, c := range n.carried {
		if c != fromAP|fromCell {
			pending = append(pending, id)
		}
	}
	if len(pending) == 0 {
		return
	}
	slices.Sort(pending) // the map's iteration order must not pick the frame
	i, found := slices.BinarySearch(pending, n.relayNext)
	if found {
		i++
	}
	next := pending[i%len(pending)]
	fix, ok := n.table[next]
	if !ok {
		return
	}
	n.relayNext = next
	n.send(n.apID, next, fix.Pos)
}

// broadcastNext re-broadcasts one known position, round-robin.
func (n *Node) broadcastNext() {
	n.learnSelf()
	if len(n.rrOrder) != len(n.table) {
		// The rotation order decides which positions hit the air first, so
		// it must not inherit the map's randomized iteration order — that
		// would make otherwise identical runs diverge. Broadcast in ID order.
		n.rrOrder = n.rrOrder[:0]
		for id := range n.table {
			n.rrOrder = append(n.rrOrder, id)
		}
		slices.Sort(n.rrOrder)
	}
	if len(n.rrOrder) == 0 {
		return
	}
	id := n.rrOrder[n.rr%len(n.rrOrder)]
	n.rr++
	fix, ok := n.table[id]
	if !ok {
		return
	}
	n.send(frame.Broadcast, id, fix.Pos)
}

// Forget drops a node from the neighbor table (station churn: the departed
// node's position must not linger as a live fix). It reports whether the
// node was known.
func (n *Node) Forget(id frame.NodeID) bool {
	_, ok := n.table[id]
	if ok {
		delete(n.table, id)
		n.changes++
	}
	delete(n.carried, id)
	return ok
}

// positionChangeEpsilon is the movement below which a re-learned position
// does not count as changed (no need to invalidate co-occurrence verdicts).
const positionChangeEpsilon = 1.0

// OnBeacon feeds a decoded LocationBeacon into the neighbor table. Wire it
// from the MAC's OnControl hook. It reports whether the table changed
// materially (a new node, or an existing one moved more than 1 m), so the
// caller can invalidate cached co-occurrence verdicts.
func (n *Node) OnBeacon(f frame.Frame) (changed bool) {
	if f.Kind != frame.LocationBeacon {
		return false
	}
	owner := frame.NodeID(f.Seq)
	pos := geom.Pt(f.X, f.Y)
	switch {
	case n.isAP:
	case owner == n.m.ID():
		if f.Src == n.apID && pos.DistanceTo(n.lastReported) <= updateThresholdMeters {
			n.announced = true
		}
	case f.Src == n.apID:
		n.carried[owner] |= fromAP
	case f.Dst != n.apID:
		n.carried[owner] |= fromCell
		n.otherCell = true
	}
	old, known := n.learn(owner, pos)
	return !known || old.Pos.DistanceTo(pos) > positionChangeEpsilon
}

// learn stores pos as id's fix, stamped now, and returns the fix it
// replaced. The change counter moves only when the position does.
func (n *Node) learn(id frame.NodeID, pos geom.Point) (old loc.Fix, known bool) {
	old, known = n.table[id]
	if !known || old.Pos != pos {
		n.changes++
	}
	n.table[id] = loc.Fix{
		Pos:               pos,
		ReportedAt:        n.eng.Now(),
		ErrorRadiusMeters: n.errorRadius,
	}
	return old, known
}

// Position implements loc.Provider from the learned neighbor table.
func (n *Node) Position(id frame.NodeID) (geom.Point, bool) {
	fix, ok := n.table[id]
	return fix.Pos, ok
}

// Changes implements loc.Versioned: it moves whenever a learned position is
// added, moved or forgotten.
func (n *Node) Changes() (uint64, bool) { return n.changes, true }

// Fix implements loc.FixProvider: a learned position's ReportedAt is the
// time this node last heard a beacon carrying it, so in-band staleness —
// lost beacons, a silent peer — surfaces directly as fix age.
func (n *Node) Fix(id frame.NodeID) (loc.Fix, bool) {
	fix, ok := n.table[id]
	return fix, ok
}

// BeaconsSent and BytesSent expose the exchange's airtime overhead;
// BeaconsLost counts beacons consumed by the injected in-band loss process.
func (n *Node) BeaconsSent() int { return n.beaconsSent }
func (n *Node) BeaconsLost() int { return n.beaconsLost }
func (n *Node) BytesSent() int64 { return n.bytesSent }
