// Package channel models the shared wireless medium: it propagates frames
// between transceivers using the log-normal shadowing model, tracks the
// aggregate energy each node senses (for carrier sense and for CO-MAP's
// RSSI-step rule) and decides frame reception by an SINR threshold, exactly
// the reception model underlying the paper's eqs. (2)–(3).
//
// The medium is single-threaded and driven by a sim.Engine; all state
// transitions happen inside simulator events, so runs are deterministic.
//
// Hot-path layout: every transceiver carries a sparse, ID-ordered neighbor
// list holding the precomputed mean-plus-static received power (in dBm and
// in mW) toward every station that could plausibly hear it. With a spatial
// grid installed (SetGrid), neighbor candidates come only from cells within
// the conservative audibility radius — cost per station is the local
// neighborhood, not N. Without a grid the world is one implicit cell and
// every pair is a candidate. Every random draw is keyed: the static shadow
// of a pair and the fading of each frame are a counter-based generator's
// output at (seed, pair, counter), so a draw never depends on which other
// pairs exist, were pruned, or drew first, and a frame draws only for the
// receivers that can hear it. Per-frame received powers live only where
// they are used: each receiver keeps an air-ordered list of the in-flight
// frames it can hear, with the linear power computed once per frame, so
// energy and SINR sums walk the local interference and never the city-wide
// air (see DESIGN.md, "Performance model").
package channel

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Listener receives PHY indications from a Transceiver. Implementations are
// MAC layers.
type Listener interface {
	// EnergyChanged reports the new aggregate in-band signal power (dBm,
	// excluding the noise floor; -Inf when the air is silent). It fires on
	// every transmission start/end heard by this node, including ones below
	// the CCA threshold.
	EnergyChanged(aggregateDBm float64)
	// FrameReceived delivers a frame this node's radio locked onto. ok is
	// false when interference pushed SINR below the rate's threshold at any
	// moment during reception. rssiDBm is the received signal strength of
	// the frame itself.
	FrameReceived(f frame.Frame, ok bool, rssiDBm float64)
	// TransmitDone indicates this node's own transmission left the air.
	TransmitDone(f frame.Frame)
}

// captureMarginDB is the power advantage a newly arriving frame needs over
// the frame currently being received for the radio to re-lock onto it
// (message-in-message / physical-layer capture, as on commodity 802.11
// hardware).
const captureMarginDB = 10.0

// staticScale and fadeScale split the shadowing deviation σ between a frozen
// per-pair component (walls, furniture — constant for stationary nodes) and
// per-frame fading: √0.7 and √0.3, so 70% of the variance is static and the
// composite per-frame deviation is exactly σ. The ensemble PRR statistics of
// the paper's eqs. (2)–(4) therefore hold whatever the split; it only
// controls how much of the randomness is frozen per topology instance.
const (
	staticScale = 0.8366600265340756 // √0.7
	fadeScale   = 0.5477225575051661 // √0.3
)

// lnPerDB converts a dB quantity to the exponent of its linear factor:
// 10^(x/10) = exp(x·ln10/10).
const lnPerDB = math.Ln10 / 10

// DefaultAudibilityMarginDB is how far below the noise floor a pair's
// loudest plausible received power must fall before the pair is pruned from
// the audibility lists. 40 dB under the noise floor, a signal contributes
// less than a ten-thousandth of the noise power to any SINR denominator and
// sits ~50 dB under every rate's sensitivity — physically inaudible.
const DefaultAudibilityMarginDB = 40.0

// audibilityFadeCapSigmas caps the per-frame fading excursion assumed when
// classifying a pair as inaudible: mean + static + K·σ_fade must still be
// under the floor. K = 6 puts the probability that a single draw exceeds the
// cap at Φ(−6) ≈ 1e-9 (see DESIGN.md for the derivation).
const audibilityFadeCapSigmas = 6.0

// Medium is the shared wireless channel.
type Medium struct {
	eng     *sim.Engine
	model   radio.LogNormal
	noise   float64
	noiseMW float64 // noise in milliwatts, refreshed whenever noise changes
	key     uint64  // the shadowing generator's key, the mixed engine seed
	nodes   []*Transceiver
	byID    map[frame.NodeID]*Transceiver
	active  []*transmission

	// AudibilityMarginDB sets the audibility floor at noise − margin:
	// transmitter→receiver pairs whose precomputed mean power plus static
	// shadow plus a 6σ fading excursion stays below the floor are skipped on
	// the per-transmission hot path. Set to math.Inf(1) to disable pruning.
	// Changes take effect at the next geometry rebuild. Default
	// DefaultAudibilityMarginDB.
	AudibilityMarginDB float64

	// geomDirty schedules a full geometry rebuild before the next
	// transmission (node added, power/noise changed, grid installed).
	// Single-node position changes after the first build are applied
	// incrementally instead (see moveNode).
	geomDirty bool

	// Spatial sharding. grid == nil means one implicit cell: every node is
	// a neighbor candidate of every other, reproducing the dense per-pair
	// behavior bit for bit. With a grid, cells[c] holds the stations of
	// cell c in ID order and nbrCells[c] the ascending cell indexes within
	// nbrRadius (the conservative audibility distance) of c.
	grid      *topology.Grid
	cells     [][]*Transceiver
	nbrCells  [][]int32
	nbrRadius float64

	// txPool recycles transmission records; candScratch is the reusable
	// candidate buffer of neighborCandidates.
	txPool      []*transmission
	candScratch []*Transceiver

	// OnTransmitStart, when set, observes every transmission at the instant
	// it is put on the air (transmitter, frame, rate, airtime). Tracing uses
	// it to reconstruct on-air intervals; implementations must be pure
	// observers — mutating protocol state from here breaks determinism.
	OnTransmitStart func(from frame.NodeID, f frame.Frame, rate phy.Rate, airtime time.Duration)

	// HeaderIndicationAt, when set, enables the paper's embedded discovery
	// header (§V method one): every data frame's source and destination
	// addresses become decodable this long into the frame (PLCP preamble +
	// MAC header + the extra 4-byte FCS). Nodes locked onto the frame
	// receive a synthetic ComapHeader indication (marked Retry to say "the
	// announced data is already on the air").
	HeaderIndicationAt func(r phy.Rate) time.Duration

	// extraPathLossDB is additional attenuation applied to every received-
	// power sample (burst fading injected by the faults layer), and
	// lossFactor its linear factor. It affects frames put on the air after
	// the change; in-flight frames keep their start-of-transmission samples.
	extraPathLossDB float64
	lossFactor      float64

	metrics    *metrics.Registry
	air        *metrics.StateClock
	collisions *metrics.Counter
	txStarts   *metrics.Counter
}

// NewMedium creates a medium over the given propagation model and noise
// floor (dBm). Its shadowing is keyed by the engine seed: every value is a
// pure function of the seed, the pair and a counter.
func NewMedium(eng *sim.Engine, model radio.LogNormal, noiseFloorDBm float64) *Medium {
	return &Medium{
		eng:                eng,
		model:              model,
		noise:              noiseFloorDBm,
		noiseMW:            radio.DBmToMilliwatts(noiseFloorDBm),
		key:                mix(uint64(eng.Seed())),
		byID:               make(map[frame.NodeID]*Transceiver),
		AudibilityMarginDB: DefaultAudibilityMarginDB,
		lossFactor:         1,
	}
}

// SetMetrics attaches a telemetry registry to the medium. It records the
// "medium" busy/idle airtime clock, the "tx_starts" and "collisions"
// counters and a per-node "collision.node.<id>" counter incremented whenever
// interference corrupts a frame that node's radio was locked onto. Call
// before traffic starts; a nil registry detaches.
func (m *Medium) SetMetrics(reg *metrics.Registry) {
	m.metrics = reg
	m.air = reg.StateClock("medium", m.eng.Now, "idle")
	m.collisions = reg.Counter("collisions")
	m.txStarts = reg.Counter("tx_starts")
	for _, n := range m.nodes {
		n.collisions = m.nodeCollisionCounter(n.id)
	}
}

// nodeCollisionCounter resolves the per-node collision counter once, so the
// hot path never rebuilds the "collision.node.<id>" key. With no registry
// attached it returns nil, and nil counters ignore Inc.
func (m *Medium) nodeCollisionCounter(id frame.NodeID) *metrics.Counter {
	if m.metrics == nil {
		return nil
	}
	return m.metrics.Counter(fmt.Sprintf("collision.node.%d", id))
}

func (m *Medium) touchAir() {
	if len(m.active) > 0 {
		m.air.Set("busy")
	} else {
		m.air.Set("idle")
	}
}

// NoiseFloorDBm returns the receiver noise floor.
func (m *Medium) NoiseFloorDBm() float64 { return m.noise }

// SetNoiseFloorDBm changes the receiver noise floor mid-run (an injected
// interference event, e.g. a microwave oven or a co-channel BSS powering
// up). Every locked reception is immediately re-evaluated against the new
// floor, so a jump can corrupt frames already in flight.
func (m *Medium) SetNoiseFloorDBm(dbm float64) {
	if dbm == m.noise {
		return
	}
	m.noise = dbm
	m.noiseMW = radio.DBmToMilliwatts(dbm)
	m.geomDirty = true // the audibility floor moved with it
	for _, n := range m.nodes {
		m.updateSINR(n)
	}
}

// SetExtraPathLossDB sets a uniform extra attenuation on all links (a burst-
// fading window injected by the faults layer). It applies to frames
// transmitted after the call; in-flight frames keep the powers sampled at
// their start. Zero restores the nominal channel.
func (m *Medium) SetExtraPathLossDB(db float64) {
	if (db < 0) != (m.extraPathLossDB < 0) {
		// A gain (negative loss) can lift otherwise-inaudible pairs over the
		// floor; the rebuild disables pruning while one is in effect.
		m.geomDirty = true
	}
	m.extraPathLossDB = db
	m.lossFactor = math.Exp(-db * lnPerDB)
}

// AddNode registers a transceiver on the medium. Adding a duplicate ID
// panics: node identity is fixed at topology-construction time and a
// collision is a programming error.
func (m *Medium) AddNode(id frame.NodeID, pos geom.Point, txPowerDBm float64, l Listener) *Transceiver {
	if _, dup := m.byID[id]; dup {
		panic(fmt.Sprintf("channel: duplicate node id %d", id))
	}
	tr := &Transceiver{id: id, pos: pos, txPower: txPowerDBm, medium: m, listener: l}
	tr.collisions = m.nodeCollisionCounter(id)
	m.byID[id] = tr
	m.nodes = append(m.nodes, tr)
	sort.Slice(m.nodes, func(i, j int) bool { return m.nodes[i].id < m.nodes[j].id })
	m.geomDirty = true
	return tr
}

// Node returns the transceiver with the given ID, or nil.
func (m *Medium) Node(id frame.NodeID) *Transceiver { return m.byID[id] }

// Nodes returns all transceivers in ID order. The returned slice is shared;
// callers must not modify it.
func (m *Medium) Nodes() []*Transceiver { return m.nodes }

// transmission is one frame in flight.
type transmission struct {
	from *Transceiver
	f    frame.Frame
	rate phy.Rate
	// minSINR is the rate's SIR threshold as a linear power ratio.
	minSINR float64
	// heard is the transmitter's audibility list snapshotted at start: the
	// receivers whose air lists carry this frame. The end-of-transmission
	// sweep visits exactly these nodes even if geometry was rebuilt
	// mid-flight.
	heard []*Transceiver
	// activeIdx is this record's position in Medium.active.
	activeIdx int
	// end and header are the record's timer callbacks, bound once when the
	// record is first allocated and reused across recycling.
	end, header func()
}

// airEntry is one in-flight frame as a receiver hears it: the shadowing-
// resolved received power sampled at transmission start, in dBm (for the
// sensitivity, capture and RSSI decisions) and in milliwatts (for every
// energy and SINR sum).
type airEntry struct {
	tx  *transmission
	dBm float64
	mW  float64
}

// reception tracks a radio locked onto a frame.
type reception struct {
	tx        *transmission
	signalDBm float64
	signalMW  float64
	corrupted bool
}

// pairEntry is one directed sparse neighbor record: the mean received power
// plus the pair's frozen static shadow from the owning transmitter to rx, in
// dBm and (for audible pairs) in mW, the pair's fading-stream key, and the
// audibility classification against the floor. Entries live in
// Transceiver.nbs sorted by rx ID.
type pairEntry struct {
	rx      *Transceiver
	baseDBm float64
	baseMW  float64
	key     uint64
	audible bool
}

// Transceiver is one node's radio front-end.
type Transceiver struct {
	id         frame.NodeID
	pos        geom.Point
	txPower    float64
	medium     *Medium
	listener   Listener
	sending    *transmission
	lock       *reception
	rec        reception // the single lock slot, reused across receptions
	collisions *metrics.Counter
	// frames counts the transmissions this node started: the fading
	// generator's counter, so frame k's fading toward rx is the draw at
	// (seed, node, rx, k).
	frames uint64

	// air lists the in-flight frames this radio hears, in Medium.active
	// order. Every frame missing from it (inaudible, pruned, started before
	// this node registered, or the node's own) contributes exactly 0 mW, so
	// summing the list reproduces a sum over all of Medium.active bit for
	// bit.
	air []airEntry

	// Sparse shard state: the containing grid cell, the ID-ordered
	// neighbor entries, and the lazily built audible snapshot (aud is
	// never mutated in place — in-flight transmissions alias it as their
	// heard list, so changes invalidate and rebuild it fresh).
	cell     int32
	nbs      []pairEntry
	aud      []*Transceiver
	audValid bool
}

// ID returns the node identifier.
func (t *Transceiver) ID() frame.NodeID { return t.id }

// SetListener installs the PHY-indication receiver (typically a MAC built
// after the node was added to the medium).
func (t *Transceiver) SetListener(l Listener) { t.listener = l }

// Listener returns the currently installed PHY-indication receiver (nil if
// none). Tracing wrappers use it to interpose themselves.
func (t *Transceiver) Listener() Listener { return t.listener }

// Position returns the node's current true position.
func (t *Transceiver) Position() geom.Point { return t.pos }

// SetPosition moves the node (mobility). In-flight frames keep the powers
// sampled at their transmission start. After the first geometry build the
// move is applied incrementally — only the moved station's neighbor entries
// and the reverse entries within its old and new neighborhoods are touched,
// never the full N×N state.
func (t *Transceiver) SetPosition(p geom.Point) {
	m := t.medium
	if m.geomDirty {
		// No valid incremental base yet: fold the move into the pending
		// full rebuild.
		t.pos = p
		m.geomDirty = true
		return
	}
	m.moveNode(t, p)
}

// Transmitting reports whether the node currently has a frame on the air.
func (t *Transceiver) Transmitting() bool { return t.sending != nil }

// AggregateSignalDBm returns the summed in-band power of all transmissions
// currently heard by this node (excluding its own and excluding the noise
// floor). Returns -Inf on a silent channel. This is the RSSI the CO-MAP
// enhanced scheduler monitors.
func (t *Transceiver) AggregateSignalDBm() float64 {
	sumMW := 0.0
	for i := range t.air {
		sumMW += t.air[i].mW
	}
	return radio.MilliwattsToDBm(sumMW)
}

// airIndex returns the position of tx in t's air list. Every receiver in
// tx.heard carries tx from its start to its end.
func (t *Transceiver) airIndex(tx *transmission) int {
	for i := len(t.air) - 1; i >= 0; i-- {
		if t.air[i].tx == tx {
			return i
		}
	}
	panic("channel: a heard frame is missing from the receiver's air list")
}

// SetGrid installs a spatial shard grid: neighbor candidates are then drawn
// only from cells within the conservative audibility radius of each
// station's cell, making per-station cost proportional to the local
// neighborhood instead of N. Call before the run starts (it forces a full
// geometry rebuild). A nil grid restores the single-implicit-cell behavior.
// Station positions outside the grid are clamped to the nearest edge cell —
// topology validation rejects out-of-world initial placements before the
// medium ever sees them.
func (m *Medium) SetGrid(g *topology.Grid) {
	m.grid = g
	m.cells = nil
	m.nbrCells = nil
	m.geomDirty = true
}

// audParams returns the audibility floor and the capped per-frame fading
// excursion of the current environment. A floor of -Inf disables pruning
// (margin set to +Inf, or an injected gain in effect).
func (m *Medium) audParams() (floor, fadeCap float64) {
	fadeCap = audibilityFadeCapSigmas * fadeScale * m.model.SigmaDB
	floor = m.noise - m.AudibilityMarginDB
	if m.extraPathLossDB < 0 {
		// An injected gain could lift arbitrary pairs above the floor;
		// disable pruning entirely while one is active.
		floor = math.Inf(-1)
	}
	return floor, fadeCap
}

// audibilityRadius returns the conservative distance beyond which no pair
// can ever be classified audible: mean power at the strongest transmit
// power, plus the 6σ caps on both the static shadow and the per-frame fade,
// still falls below the floor. Cell pairs farther apart than this are not
// neighbors, and their stations never even compute a static shadow.
func (m *Medium) audibilityRadius(floor, fadeCap float64) float64 {
	if math.IsInf(floor, -1) {
		return math.Inf(1)
	}
	staticCap := audibilityFadeCapSigmas * staticScale * m.model.SigmaDB
	maxPower := math.Inf(-1)
	for _, n := range m.nodes {
		if n.txPower > maxPower {
			maxPower = n.txPower
		}
	}
	if math.IsInf(maxPower, -1) {
		return 0
	}
	// MeanReceivedDBm is monotonically non-increasing in distance; bisect
	// for the largest distance still clearing the floor.
	lo, hi := 0.0, 1.0
	for m.model.MeanReceivedDBm(maxPower, hi)+staticCap+fadeCap >= floor {
		lo, hi = hi, hi*2
		if hi > 1e9 { // the whole planet is audible; don't prune by cell
			return math.Inf(1)
		}
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if m.model.MeanReceivedDBm(maxPower, mid)+staticCap+fadeCap >= floor {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// rebuildGeometry refreshes the sharded per-pair state: cell assignments,
// neighbor-cell sets and every station's sparse neighbor entries (mean plus
// static received power, audibility). It runs lazily on the first
// transmission after a structural change, so bursts of updates cost one
// rebuild.
func (m *Medium) rebuildGeometry() {
	floor, fadeCap := m.audParams()
	m.rebuildCells(floor, fadeCap)
	for _, t := range m.nodes {
		m.rebuildNeighborsOf(t, floor, fadeCap)
	}
	m.geomDirty = false
}

// rebuildCells reassigns every station to its grid cell and refreshes the
// per-cell neighbor sets when the audibility radius changed. No-op without
// a grid.
func (m *Medium) rebuildCells(floor, fadeCap float64) {
	if m.grid == nil {
		return
	}
	nCells := m.grid.Cells()
	if len(m.cells) != nCells {
		m.cells = make([][]*Transceiver, nCells)
	} else {
		for i := range m.cells {
			m.cells[i] = m.cells[i][:0]
		}
	}
	for _, t := range m.nodes { // ID order, so per-cell lists stay sorted
		t.cell = int32(m.grid.ClampedCellOf(t.pos))
		m.cells[t.cell] = append(m.cells[t.cell], t)
	}
	radius := m.audibilityRadius(floor, fadeCap)
	if m.nbrCells == nil || radius != m.nbrRadius {
		m.nbrRadius = radius
		m.nbrCells = make([][]int32, nCells)
		for c := 0; c < nCells; c++ {
			m.nbrCells[c] = m.grid.CellsWithin(c, radius)
		}
	}
}

// neighborCandidates returns the ID-ordered candidate receivers for t: all
// stations of t's neighbor cells (including t itself; callers skip it).
// Without a grid every node is a candidate — the dense behavior. The
// returned slice aliases m.candScratch and is only valid until the next
// call.
func (m *Medium) neighborCandidates(t *Transceiver) []*Transceiver {
	if m.grid == nil {
		return m.nodes
	}
	cand := m.candScratch[:0]
	for _, c := range m.nbrCells[t.cell] {
		cand = append(cand, m.cells[c]...)
	}
	// Each cell list is ID-ordered but their concatenation is not; sort so
	// neighbor entries (and with them the audible lists and the air-list
	// order) keep the global ID order.
	sort.Slice(cand, func(i, j int) bool { return cand[i].id < cand[j].id })
	m.candScratch = cand
	return cand
}

// rebuildNeighborsOf recomputes t's sparse neighbor entries from its
// current candidates.
func (m *Medium) rebuildNeighborsOf(t *Transceiver, floor, fadeCap float64) {
	nbs := t.nbs[:0]
	for _, r := range m.neighborCandidates(t) {
		if r != t {
			nbs = append(nbs, m.newEntry(t, r, floor, fadeCap))
		}
	}
	t.nbs = nbs
	t.audValid = false
}

// newEntry computes s's neighbor entry toward r from their current
// positions: a pure function of the pair, so the incremental and full
// rebuilds agree bit for bit. Only audible pairs need the linear power.
func (m *Medium) newEntry(s, r *Transceiver, floor, fadeCap float64) pairEntry {
	base := m.model.MeanReceivedDBm(s.txPower, s.pos.DistanceTo(r.pos)) + m.staticShadowDB(s.id, r.id)
	e := pairEntry{rx: r, baseDBm: base, key: m.pairStream(s.id, r.id), audible: base+fadeCap >= floor}
	if e.audible {
		e.baseMW = math.Exp(base * lnPerDB)
	}
	return e
}

// audibleOf returns t's audible receivers in ID order, rebuilding the
// snapshot lazily. The slice is freshly allocated whenever entries changed,
// so in-flight transmissions holding an older snapshot as their heard list
// never see it mutate.
func (m *Medium) audibleOf(t *Transceiver) []*Transceiver {
	if !t.audValid {
		aud := make([]*Transceiver, 0, len(t.nbs))
		for i := range t.nbs {
			if t.nbs[i].audible {
				aud = append(aud, t.nbs[i].rx)
			}
		}
		t.aud = aud
		t.audValid = true
	}
	return t.aud
}

// moveNode applies a single-station position change incrementally: the
// station migrates between cell lists, its own neighbor entries are rebuilt
// from the new neighborhood, and the reverse entries of every station in
// the old and new neighborhoods are updated in place — no full N×N rebuild.
// The result is indistinguishable from a full rebuild: the same entry
// values, pure functions of the pair and its current positions.
func (m *Medium) moveNode(t *Transceiver, p geom.Point) {
	floor, fadeCap := m.audParams()
	t.pos = p
	oldCell := t.cell
	if m.grid != nil {
		newCell := int32(m.grid.ClampedCellOf(p))
		if newCell != oldCell {
			m.cells[oldCell] = removeStation(m.cells[oldCell], t)
			m.cells[newCell] = insertStation(m.cells[newCell], t)
			t.cell = newCell
		}
	}
	m.rebuildNeighborsOf(t, floor, fadeCap)

	if m.grid == nil {
		for _, s := range m.nodes {
			if s != t {
				m.updateEntryFor(s, t, floor, fadeCap)
			}
		}
		return
	}
	// Walk the union of the old and new neighbor-cell sets (both
	// ascending): stations still in range get their entry for t refreshed,
	// stations only in the old neighborhood drop it.
	oldNbrs, newNbrs := m.nbrCells[oldCell], m.nbrCells[t.cell]
	i, j := 0, 0
	for i < len(oldNbrs) || j < len(newNbrs) {
		var c int32
		inNew := false
		switch {
		case i >= len(oldNbrs):
			c, inNew = newNbrs[j], true
			j++
		case j >= len(newNbrs):
			c = oldNbrs[i]
			i++
		case oldNbrs[i] < newNbrs[j]:
			c = oldNbrs[i]
			i++
		case newNbrs[j] < oldNbrs[i]:
			c, inNew = newNbrs[j], true
			j++
		default:
			c, inNew = oldNbrs[i], true
			i, j = i+1, j+1
		}
		for _, s := range m.cells[c] {
			if s == t {
				continue
			}
			if inNew {
				m.updateEntryFor(s, t, floor, fadeCap)
			} else {
				m.dropEntryFor(s, t)
			}
		}
	}
}

// updateEntryFor refreshes (or inserts) s's neighbor entry toward r after r
// moved, invalidating s's audible snapshot only when membership or
// audibility actually changed.
func (m *Medium) updateEntryFor(s, r *Transceiver, floor, fadeCap float64) {
	e := m.newEntry(s, r, floor, fadeCap)
	k := searchEntry(s.nbs, r.id)
	if k < len(s.nbs) && s.nbs[k].rx == r {
		if s.nbs[k].audible != e.audible {
			s.audValid = false
		}
		s.nbs[k] = e
		return
	}
	s.nbs = append(s.nbs, pairEntry{})
	copy(s.nbs[k+1:], s.nbs[k:])
	s.nbs[k] = e
	s.audValid = false
}

// dropEntryFor removes s's neighbor entry toward r (r moved out of range).
func (m *Medium) dropEntryFor(s, r *Transceiver) {
	k := searchEntry(s.nbs, r.id)
	if k < len(s.nbs) && s.nbs[k].rx == r {
		if s.nbs[k].audible {
			s.audValid = false
		}
		s.nbs = append(s.nbs[:k], s.nbs[k+1:]...)
	}
}

// searchEntry returns the insertion index of id in the ID-ordered entries.
func searchEntry(nbs []pairEntry, id frame.NodeID) int {
	return sort.Search(len(nbs), func(i int) bool { return nbs[i].rx.id >= id })
}

// removeStation deletes t from an ID-ordered cell list, preserving order.
func removeStation(cell []*Transceiver, t *Transceiver) []*Transceiver {
	k := sort.Search(len(cell), func(i int) bool { return cell[i].id >= t.id })
	if k < len(cell) && cell[k] == t {
		return append(cell[:k], cell[k+1:]...)
	}
	return cell
}

// insertStation adds t to an ID-ordered cell list, preserving order.
func insertStation(cell []*Transceiver, t *Transceiver) []*Transceiver {
	k := sort.Search(len(cell), func(i int) bool { return cell[i].id >= t.id })
	cell = append(cell, nil)
	copy(cell[k+1:], cell[k:])
	cell[k] = t
	return cell
}

// newTransmission takes a pooled transmission record (or allocates the first
// time).
func (m *Medium) newTransmission(t *Transceiver, f frame.Frame, rate phy.Rate) *transmission {
	var tx *transmission
	if n := len(m.txPool); n > 0 {
		tx = m.txPool[n-1]
		m.txPool[n-1] = nil
		m.txPool = m.txPool[:n-1]
	} else {
		tx = &transmission{}
		tx.end = func() { m.endTransmission(tx) }
		tx.header = func() { m.emitHeaderIndication(tx) }
	}
	tx.from, tx.f, tx.rate = t, f, rate
	tx.minSINR = math.Exp(rate.MinSIRdB * lnPerDB)
	return tx
}

// releaseTransmission returns a finished record to the pool. Reference
// fields are cleared so pooled records do not retain transceivers or payload
// metadata.
func (m *Medium) releaseTransmission(tx *transmission) {
	tx.from = nil
	tx.f = frame.Frame{}
	tx.heard = nil
	m.txPool = append(m.txPool, tx)
}

// Transmit puts a frame on the air for the given airtime at the given rate.
// It returns an error if the node is already transmitting. Any reception in
// progress is aborted (half-duplex radio).
func (t *Transceiver) Transmit(f frame.Frame, rate phy.Rate, airtime time.Duration) error {
	if t.sending != nil {
		return fmt.Errorf("channel: node %d already transmitting", t.id)
	}
	if airtime <= 0 {
		return fmt.Errorf("channel: non-positive airtime %v", airtime)
	}
	m := t.medium
	if m.geomDirty {
		m.rebuildGeometry()
	}
	tx := m.newTransmission(t, f, rate)
	t.frames++
	// Received powers: the pair's mean-plus-static power times this frame's
	// fading, exp(c·z) for the keyed draw z at (seed, t, rx, frame count),
	// times the extra-loss factor. Only audible receivers draw, and each
	// gets the frame appended to its air list before any receiver is
	// notified, as the frame joins m.active before any callback runs.
	fadeDB := fadeScale * m.model.SigmaDB
	c := fadeDB * lnPerDB
	for i := range t.nbs {
		e := &t.nbs[i]
		if !e.audible {
			continue
		}
		z := normal(stream(e.key, t.frames))
		e.rx.air = append(e.rx.air, airEntry{
			tx:  tx,
			dBm: e.baseDBm - m.extraPathLossDB + fadeDB*z,
			mW:  e.baseMW * m.lossFactor * math.Exp(c*z),
		})
	}
	tx.heard = m.audibleOf(t)
	t.sending = tx
	t.lock = nil // half-duplex: abort any reception
	tx.activeIdx = len(m.active)
	m.active = append(m.active, tx)
	m.txStarts.Inc()
	m.touchAir()
	if m.OnTransmitStart != nil {
		m.OnTransmitStart(t.id, f, rate, airtime)
	}

	for _, n := range tx.heard {
		m.onAirChanged(n)
		m.maybeLock(n, tx)
	}

	if m.HeaderIndicationAt != nil && f.Kind == frame.Data {
		if at := m.HeaderIndicationAt(rate); at > 0 && at < airtime {
			m.eng.AfterTagged(at, sim.TagChannel, int32(t.id), tx.header)
		}
	}

	m.eng.AfterTagged(airtime, sim.TagChannel, int32(t.id), tx.end)
	return nil
}

// emitHeaderIndication delivers the embedded discovery header of an
// in-flight data frame to every node whose radio is locked onto it and has
// decoded it cleanly so far. Only nodes audible at transmission start can
// hold such a lock.
func (m *Medium) emitHeaderIndication(tx *transmission) {
	hdr := frame.Frame{Kind: frame.ComapHeader, Src: tx.f.Src, Dst: tx.f.Dst, Retry: true}
	for _, n := range tx.heard {
		if n.listener == nil {
			continue
		}
		if n.lock != nil && n.lock.tx == tx && !n.lock.corrupted {
			n.listener.FrameReceived(hdr, true, n.lock.signalDBm)
		}
	}
}

// maybeLock lets node n attempt to lock onto freshly started transmission tx,
// including re-locking from a weaker ongoing reception (capture).
func (m *Medium) maybeLock(n *Transceiver, tx *transmission) {
	if n.sending != nil {
		return
	}
	a := &n.air[n.airIndex(tx)]
	if a.dBm < tx.rate.SensitivityDBm {
		return
	}
	if n.lock != nil {
		// Message-in-message capture: a sufficiently stronger new frame
		// steals the radio; the old frame is lost (it would be corrupted by
		// the strong arrival anyway).
		if a.dBm < n.lock.signalDBm+captureMarginDB {
			return
		}
	}
	n.rec = reception{tx: tx, signalDBm: a.dBm, signalMW: a.mW}
	n.lock = &n.rec
	m.updateSINR(n)
}

// updateSINR re-evaluates the SINR of n's current lock against every other
// frame n hears and latches corruption if it falls below the rate's
// threshold, compared in the linear domain. The denominator is summed as
// radio.SINRdB sums it over all active transmissions: noise first, then
// interferers in air order, with the inaudible ones (exactly 0 mW) left out.
func (m *Medium) updateSINR(n *Transceiver) {
	rec := n.lock
	if rec == nil || rec.corrupted {
		return
	}
	denomMW := m.noiseMW
	for i := range n.air {
		if n.air[i].tx != rec.tx {
			denomMW += n.air[i].mW
		}
	}
	if rec.signalMW < denomMW*rec.tx.minSINR {
		rec.corrupted = true
		// A collision overlap: interference pushed this node's locked frame
		// below its SINR threshold. Latched once per reception.
		m.collisions.Inc()
		n.collisions.Inc()
	}
}

// onAirChanged notifies node n that the set of audible transmissions changed
// and re-checks its lock's SINR.
func (m *Medium) onAirChanged(n *Transceiver) {
	m.updateSINR(n)
	if n.listener != nil {
		n.listener.EnergyChanged(n.AggregateSignalDBm())
	}
}

// endTransmission removes tx from the air, delivers it to any locked
// receiver and notifies every node that heard it of the energy change.
func (m *Medium) endTransmission(tx *transmission) {
	// Ordered removal at the stored index: the order of m.active fixes the
	// floating-point summation order of every power aggregate, so a
	// swap-remove would change low-order result bits whenever three or more
	// transmissions overlap (see DESIGN.md).
	i := tx.activeIdx
	copy(m.active[i:], m.active[i+1:])
	m.active[len(m.active)-1] = nil
	m.active = m.active[:len(m.active)-1]
	for j := i; j < len(m.active); j++ {
		m.active[j].activeIdx = j
	}
	// The same ordered splice from every receiver's air list, all before the
	// first callback, so each list keeps m.active's relative order.
	for _, n := range tx.heard {
		k := n.airIndex(tx)
		copy(n.air[k:], n.air[k+1:])
		n.air[len(n.air)-1] = airEntry{}
		n.air = n.air[:len(n.air)-1]
	}
	tx.from.sending = nil
	m.touchAir()

	for _, n := range tx.heard {
		if n == tx.from {
			continue
		}
		if n.lock != nil && n.lock.tx == tx {
			rec := n.lock
			ok, rssi := !rec.corrupted, rec.signalDBm
			n.lock = nil
			if n.listener != nil {
				n.listener.FrameReceived(tx.f, ok, rssi)
			}
		}
		m.onAirChanged(n)
	}
	if tx.from.listener != nil {
		tx.from.listener.TransmitDone(tx.f)
	}
	// Recycle only after the last callback: a synchronous re-Transmit from
	// TransmitDone takes a different pooled record.
	m.releaseTransmission(tx)
}

// staticShadowDB returns the frozen static shadowing component of the pair:
// the generator's draw at counter 0 of the unordered pair, so it is
// symmetric (radio reciprocity) and depends only on (seed, pair), never on
// when or in what order pairs are first used.
func (m *Medium) staticShadowDB(a, b frame.NodeID) float64 {
	if a > b {
		a, b = b, a
	}
	return staticScale * m.model.SigmaDB * normal(stream(m.pairStream(a, b), 0))
}
