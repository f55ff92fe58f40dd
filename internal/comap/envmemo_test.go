package comap

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/loc"
	"repro/internal/locx"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
)

// envPositions is the CountEnvironment topology of
// TestAgentCountEnvironmentAndAdaptation: for 1→10 among {3, 4, 6}, node 3
// is a hidden terminal and 4 and 6 are contenders.
var envPositions = map[frame.NodeID]geom.Point{
	1:  geom.Pt(0, 0),
	10: geom.Pt(15, 0),
	3:  geom.Pt(45, 0),
	4:  geom.Pt(10, 0),
	6:  geom.Pt(0, 20),
}

var envCandidates = []frame.NodeID{3, 4, 6}

// countingProvider counts Position calls on a versioned provider, to tell
// memo hits from recomputations.
type countingProvider struct {
	loc.Versioned
	calls int
}

func (p *countingProvider) Position(id frame.NodeID) (geom.Point, bool) {
	p.calls++
	return p.Versioned.Position(id)
}

func wantEnv(t *testing.T, a *Agent, candidates []frame.NodeID, h, c int, when string) {
	t.Helper()
	if gh, gc := a.CountEnvironment(10, candidates); gh != h || gc != c {
		t.Fatalf("%s: CountEnvironment = (%d, %d), want (%d, %d)", when, gh, gc, h, c)
	}
}

// TestCountEnvironmentMemoFollowsRegistry checks the memo against the
// location registry: repeated calls reuse the counts without touching the
// provider (while the gauges still update), and a committed move, a
// deregistration or a different candidate set yields fresh counts at once.
func TestCountEnvironmentMemoFollowsRegistry(t *testing.T) {
	reg := loc.NewRegistry(rand.New(rand.NewSource(1)), 0, 0)
	for id, p := range envPositions {
		reg.Register(id, p)
	}
	p := &countingProvider{Versioned: reg}
	a := NewAgent(1, testbedModel(), p)
	m := metrics.NewRegistry()
	a.SetMetrics(m)

	wantEnv(t, a, envCandidates, 1, 2, "initial")
	p.calls = 0
	m.Gauge("comap.env.hidden").Set(-1)
	m.Gauge("comap.env.contenders").Set(-1)
	wantEnv(t, a, envCandidates, 1, 2, "repeat")
	if p.calls != 0 {
		t.Errorf("repeat call read %d positions, want a memo hit", p.calls)
	}
	if h, c := m.Gauge("comap.env.hidden").Value(), m.Gauge("comap.env.contenders").Value(); h != 1 || c != 2 {
		t.Errorf("gauges after a memo hit = (%v, %v), want (1, 2)", h, c)
	}

	wantEnv(t, a, []frame.NodeID{4}, 0, 1, "other candidates")
	wantEnv(t, a, envCandidates, 1, 2, "candidates restored")
	reg.Move(3, geom.Pt(200, 0))
	wantEnv(t, a, envCandidates, 0, 2, "after the hidden terminal moved away")
	reg.Deregister(4)
	wantEnv(t, a, envCandidates, 0, 1, "after a contender deregistered")
}

// TestCountEnvironmentMemoFollowsLocx checks the memo against the in-band
// exchange's learned table: a moved position and a forgotten node yield
// fresh counts, while a beacon repeating a known position does not move the
// table's change counter.
func TestCountEnvironmentMemoFollowsLocx(t *testing.T) {
	eng := sim.New(1)
	medium := channel.NewMedium(eng, radio.NewLogNormal2400(2.9, 0), -95)
	tr := medium.AddNode(1, envPositions[1], 0, nil)
	m := mac.New(eng, tr, mac.Config{PHY: phy.DSSS(), CCAThresholdDBm: -81})
	node := locx.NewClient(eng, m, 10, func() (geom.Point, bool) { return envPositions[1], true }, 0)
	node.Start()
	beacon := func(id frame.NodeID, p geom.Point) {
		node.OnBeacon(frame.Frame{Kind: frame.LocationBeacon, Seq: uint16(id), X: p.X, Y: p.Y})
	}
	for _, id := range []frame.NodeID{10, 3, 4, 6} {
		beacon(id, envPositions[id])
	}
	a := NewAgent(1, testbedModel(), node)

	wantEnv(t, a, envCandidates, 1, 2, "initial")
	before, _ := node.Changes()
	beacon(3, envPositions[3])
	if after, _ := node.Changes(); after != before {
		t.Errorf("a repeated position moved the change counter %d -> %d", before, after)
	}
	beacon(3, geom.Pt(200, 0))
	wantEnv(t, a, envCandidates, 0, 2, "after the hidden terminal's beacon moved it")
	node.Forget(4)
	wantEnv(t, a, envCandidates, 0, 1, "after a contender was forgotten")
}

// versionedFixes is a fix table claiming its positions never change, so
// only the healthy candidate set can tell the memo that counts moved.
type versionedFixes struct{ fixTable }

func (versionedFixes) Changes() (uint64, bool) { return 0, true }

// TestCountEnvironmentFollowsFixAgeing checks that with health gating on
// the counts track fix age, which moves with the clock while no position
// changes: once the hidden terminal's fix is too old it stops counting, and
// once it is fresh again it counts again.
func TestCountEnvironmentFollowsFixAgeing(t *testing.T) {
	fixes := fixTable{}
	for id, p := range envPositions {
		fixes[id] = loc.Fix{Pos: p, ReportedAt: 2 * time.Second}
	}
	fixes[3] = loc.Fix{Pos: envPositions[3], ReportedAt: 0}
	now := 500 * time.Millisecond
	a := NewAgent(1, testbedModel(), versionedFixes{fixes})
	a.SetHealth(func() time.Duration { return now })

	wantEnv(t, a, envCandidates, 1, 2, "all fixes fresh")
	now = 3500 * time.Millisecond // hidden terminal's fix 3.5 s old, the rest 1.5 s
	wantEnv(t, a, envCandidates, 0, 2, "hidden terminal's fix aged out")
	fixes[3] = loc.Fix{Pos: envPositions[3], ReportedAt: now}
	wantEnv(t, a, envCandidates, 1, 2, "hidden terminal re-reported")
}
