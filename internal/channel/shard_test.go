package channel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topology"
)

// shardFixture builds a medium over a scattered field of stations, optionally
// sharded by a grid, and exercises a deterministic schedule of transmissions
// and moves. It returns per-node received frames and the final state digest,
// the complete observable footprint of the channel.
type shardFixture struct {
	eng   *sim.Engine
	m     *Medium
	recs  map[frame.NodeID]*recorder
	nodes []*Transceiver
	// rebuildOnMove replaces moveNode with a full geometry rebuild right
	// after every scheduled move, so both paths see every intermediate
	// layout.
	rebuildOnMove bool
}

func newShardFixture(t *testing.T, seed int64, n int, grid *topology.Grid) *shardFixture {
	t.Helper()
	eng := sim.New(seed)
	eng.EnableRNGAccounting()
	m := NewMedium(eng, radio.NewLogNormal2400(4.0, 2.0), -95)
	if grid != nil {
		m.SetGrid(grid)
	}
	fx := &shardFixture{eng: eng, m: m, recs: map[frame.NodeID]*recorder{}}
	// Scatter stations deterministically over a 1 km field, independent of
	// the engine's streams.
	rng := rand.New(rand.NewSource(seed + 1000))
	for i := 0; i < n; i++ {
		id := frame.NodeID(i + 1)
		pos := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		rec := &recorder{}
		fx.recs[id] = rec
		fx.nodes = append(fx.nodes, m.AddNode(id, pos, 20, rec))
	}
	return fx
}

// run fires a fixed schedule: staggered transmissions from every node with
// interleaved random-walk moves of a rotating subset.
func (fx *shardFixture) run() {
	rng := rand.New(rand.NewSource(99))
	rate := phy.RateOFDM6
	at := time.Millisecond
	for round := 0; round < 6; round++ {
		for i, tr := range fx.nodes {
			tr := tr
			dst := fx.nodes[(i+1)%len(fx.nodes)]
			f := frame.Frame{Kind: frame.Data, Src: tr.ID(), Dst: dst.ID(), Seq: uint16(round), PayloadBytes: 200}
			fx.eng.Schedule(at, func() { _ = tr.Transmit(f, rate, 300*time.Microsecond) })
			at += 173 * time.Microsecond
		}
		// Move a third of the stations between rounds, far enough to hop
		// shard cells. The first mover of each round instead jumps to the
		// mirrored corner of the field, leaving its whole old neighborhood
		// behind: the incremental path must drop every entry it left.
		for i := round % 3; i < len(fx.nodes); i += 3 {
			tr := fx.nodes[i]
			dx, dy := (rng.Float64()-0.5)*400, (rng.Float64()-0.5)*400
			p := geom.Pt(clampF(tr.Position().X+dx, 0, 1000), clampF(tr.Position().Y+dy, 0, 1000))
			if i == round%3 {
				p = geom.Pt(1000-tr.Position().X, 1000-tr.Position().Y)
			}
			fx.eng.Schedule(at, func() {
				if !fx.rebuildOnMove {
					tr.SetPosition(p)
					return
				}
				fx.m.geomDirty = true
				tr.SetPosition(p)
				fx.m.rebuildGeometry()
			})
			at += 50 * time.Microsecond
		}
	}
	fx.eng.Run()
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func (fx *shardFixture) digest() uint64 {
	h := audit.NewHasher()
	fx.m.DigestState(h)
	return h.Sum()
}

// footprint renders every delivery observed by every node, in node order.
func (fx *shardFixture) footprint() string {
	out := ""
	for _, tr := range fx.nodes {
		rec := fx.recs[tr.ID()]
		out += fmt.Sprintf("node %d: %d frames %d energies\n", tr.ID(), len(rec.frames), len(rec.energies))
		for _, r := range rec.frames {
			out += fmt.Sprintf("  %d->%d seq %d ok=%v rssi=%.9f\n", r.f.Src, r.f.Dst, r.f.Seq, r.ok, r.rssi)
		}
	}
	return out
}

// TestShardedMatchesUnsharded drives the same node field with and without a
// shard grid under a generous audibility margin (so nothing is actually
// pruned) and demands identical deliveries, RNG cursors and state digests:
// sharding is a layout change, not a behavior change.
func TestShardedMatchesUnsharded(t *testing.T) {
	grid, err := topology.NewGrid(geom.Pt(0, 0), 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	dense := newShardFixture(t, 7, 24, nil)
	dense.run()
	sharded := newShardFixture(t, 7, 24, grid)
	sharded.run()

	if d, s := dense.footprint(), sharded.footprint(); d != s {
		t.Fatalf("sharded deliveries diverge from dense:\ndense:\n%s\nsharded:\n%s", d, s)
	}
	if d, s := dense.digest(), sharded.digest(); d != s {
		t.Fatalf("state digests diverge: dense %x, sharded %x", d, s)
	}
	dc, sc := dense.eng.RNGCursors(), sharded.eng.RNGCursors()
	if len(dc) != len(sc) {
		t.Fatalf("RNG stream sets diverge: %d vs %d streams", len(dc), len(sc))
	}
	for name, n := range dc {
		if sc[name] != n {
			t.Fatalf("stream %q cursor %d (dense) != %d (sharded)", name, n, sc[name])
		}
	}
}

// TestIncrementalMatchesFullRebuild pins the incremental neighbor-maintenance
// path (single-node moves splicing cell lists and reverse entries) against a
// full geometry rebuild after every move: identical deliveries, identical
// RNG stream cursors — the incremental path may not shift a single draw —
// and identical digests. This is the RNG-stream-identity guarantee for
// mobility. A zero audibility margin shrinks the neighbor radius to ~200 m,
// well inside the 1 km field, so moves leave stations behind whose entries
// for the mover must be dropped.
func TestIncrementalMatchesFullRebuild(t *testing.T) {
	grid, err := topology.NewGrid(geom.Pt(0, 0), 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, gr := range []*topology.Grid{nil, grid} {
		name := "dense"
		if gr != nil {
			name = "sharded"
		}
		t.Run(name, func(t *testing.T) {
			inc := newShardFixture(t, 3, 18, gr)
			inc.m.AudibilityMarginDB = 0
			inc.run()
			full := newShardFixture(t, 3, 18, gr)
			full.m.AudibilityMarginDB = 0
			full.rebuildOnMove = true
			full.run()

			if a, b := inc.footprint(), full.footprint(); a != b {
				t.Fatalf("incremental deliveries diverge from full rebuild:\nincremental:\n%s\nfull:\n%s", a, b)
			}
			ic, fc := inc.eng.RNGCursors(), full.eng.RNGCursors()
			if len(ic) != len(fc) {
				t.Fatalf("RNG stream sets diverge: %d vs %d", len(ic), len(fc))
			}
			for name, n := range fc {
				if ic[name] != n {
					t.Fatalf("stream %q cursor %d (incremental) != %d (full)", name, ic[name], n)
				}
			}
			if a, b := inc.digest(), full.digest(); a != b {
				t.Fatalf("state digests diverge: incremental %x, full %x", a, b)
			}
		})
	}
}

// TestGridPrunesStaticDraws verifies the sharding actually prunes: distant
// cells never become neighbor candidates, so far pairs get no entry and
// compute no static shadow, while the dense medium keeps an entry per
// directed pair.
func TestGridPrunesStaticDraws(t *testing.T) {
	grid, err := topology.NewGrid(geom.Pt(0, 0), 8000, 3) // 1 km cells
	if err != nil {
		t.Fatal(err)
	}
	build := func(g *topology.Grid) (*Medium, int) {
		eng := sim.New(5)
		m := NewMedium(eng, radio.NewLogNormal2400(4.0, 2.0), -95)
		if g != nil {
			m.SetGrid(g)
		}
		// Two clusters in opposite corners, kilometers apart.
		m.AddNode(1, geom.Pt(100, 100), 20, &recorder{})
		m.AddNode(2, geom.Pt(130, 120), 20, &recorder{})
		m.AddNode(3, geom.Pt(7900, 7900), 20, &recorder{})
		m.AddNode(4, geom.Pt(7870, 7880), 20, &recorder{})
		m.rebuildGeometry()
		entries := 0
		for _, n := range m.Nodes() {
			entries += len(n.nbs)
		}
		return m, entries
	}
	if _, got := build(nil); got != 12 {
		t.Fatalf("dense medium holds %d pair entries, want all 12 directed pairs", got)
	}
	sharded, got := build(grid)
	if got != 4 {
		t.Fatalf("sharded medium holds %d pair entries, want 4 (both directions of each near pair)", got)
	}
	// Cross-cluster transmissions reach nobody.
	a := sharded.Node(1)
	if aud := sharded.audibleOf(a); len(aud) != 1 || aud[0].ID() != 2 {
		t.Fatalf("node 1 audibility list = %v, want just node 2", aud)
	}
}

// TestShardedMoveAcrossCells walks one station across the whole grid and
// checks the invariant that its neighbor entries always mirror the reverse
// direction: s has an entry for t exactly when t has one for s.
func TestShardedMoveAcrossCells(t *testing.T) {
	grid, err := topology.NewGrid(geom.Pt(0, 0), 4000, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(11)
	m := NewMedium(eng, radio.NewLogNormal2400(4.0, 2.0), -95)
	m.SetGrid(grid)
	var nodes []*Transceiver
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		nodes = append(nodes, m.AddNode(frame.NodeID(i+1), geom.Pt(rng.Float64()*4000, rng.Float64()*4000), 20, &recorder{}))
	}
	m.rebuildGeometry()
	walker := nodes[0]
	for step := 0; step < 40; step++ {
		walker.SetPosition(geom.Pt(rng.Float64()*4000, rng.Float64()*4000))
		for _, s := range nodes {
			if s == walker {
				continue
			}
			fwd := hasEntry(walker, s)
			rev := hasEntry(s, walker)
			if fwd != rev {
				t.Fatalf("step %d: asymmetric neighbor entries between %d and %d (fwd=%v rev=%v)",
					step, walker.ID(), s.ID(), fwd, rev)
			}
			if fwd {
				d := walker.Position().DistanceTo(s.Position())
				if d > 2*m.nbrRadius+2*grid.CellSizeMeters() {
					t.Fatalf("step %d: pair %d-%d at %g m still neighbors (radius %g)",
						step, walker.ID(), s.ID(), d, m.nbrRadius)
				}
			}
		}
	}
	if math.IsInf(m.nbrRadius, 1) {
		t.Fatal("audibility radius is infinite; the walk exercised nothing")
	}
}

func hasEntry(t, r *Transceiver) bool {
	k := searchEntry(t.nbs, r.ID())
	return k < len(t.nbs) && t.nbs[k].rx == r
}
