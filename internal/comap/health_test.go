package comap

import (
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/loc"
	"repro/internal/metrics"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fixTable is a FixProvider test double with explicit per-node fixes.
type fixTable map[frame.NodeID]loc.Fix

func (f fixTable) Position(id frame.NodeID) (geom.Point, bool) {
	fx, ok := f[id]
	return fx.Pos, ok
}

func (f fixTable) Fix(id frame.NodeID) (loc.Fix, bool) {
	fx, ok := f[id]
	return fx, ok
}

// separatedFixes is the well-separated two-link topology from
// TestAgentAllowedCachesVerdicts, every fix fresh at time at.
func separatedFixes(at time.Duration) fixTable {
	return fixTable{
		1:  {Pos: geom.Pt(0, 0), ReportedAt: at},
		10: {Pos: geom.Pt(10, 0), ReportedAt: at},
		2:  {Pos: geom.Pt(50, 0), ReportedAt: at},
		11: {Pos: geom.Pt(58, 0), ReportedAt: at},
	}
}

func healthAgent(fixes fixTable, now func() time.Duration) *Agent {
	a := NewAgent(2, testbedModel(), fixes)
	a.SetHealth(now)
	return a
}

func TestHealthGateStaleFixFallsBackToDCF(t *testing.T) {
	now := 10 * time.Second
	fixes := separatedFixes(now)
	fixes[1] = loc.Fix{Pos: geom.Pt(0, 0), ReportedAt: 0} // 10 s old, bound 3 s
	a := healthAgent(fixes, func() time.Duration { return now })
	reg := metrics.NewRegistry()
	a.SetMetrics(reg)
	buf := &trace.Buffer{}
	a.SetTrace(trace.NewEmitter(sim.New(1), 2, buf))

	if a.Allowed(1, 10, 11) {
		t.Error("stale fix must deny concurrency")
	}
	if a.Map().Len() != 0 {
		t.Error("health-gated denial must not be cached")
	}
	if reg.Counter("comap.fallback.dcf").Value() != 1 {
		t.Errorf("fallback.dcf = %d", reg.Counter("comap.fallback.dcf").Value())
	}
	found := false
	for _, e := range buf.Events {
		if e.Kind == trace.KindCoFallback && e.Reason == "unhealthy_fix" {
			found = true
		}
	}
	if !found {
		t.Error("no co.fallback trace event")
	}

	// Fresh fix: the same decision is allowed and cached again.
	fixes[1] = loc.Fix{Pos: geom.Pt(0, 0), ReportedAt: now}
	if !a.Allowed(1, 10, 11) {
		t.Error("fresh fixes should allow the separated links")
	}
	if a.Map().Len() != 1 {
		t.Error("healthy verdict should be cached")
	}
}

func TestHealthGateMissingFixFallsBackToDCF(t *testing.T) {
	fixes := separatedFixes(0)
	delete(fixes, 10) // churned-out peer: no fix at all
	a := healthAgent(fixes, func() time.Duration { return 0 })
	if a.Allowed(1, 10, 11) {
		t.Error("missing fix must deny concurrency")
	}
	if a.Map().Len() != 0 {
		t.Error("health-gated denial must not be cached")
	}
}

// posOnly is a plain loc.Provider (no fix metadata).
type posOnly fixTable

func (p posOnly) Position(id frame.NodeID) (geom.Point, bool) {
	return fixTable(p).Position(id)
}

// TestOracleProviderNeverGoesStale: a provider without fix metadata must
// read as always fresh. Regression: such fixes once defaulted to
// ReportedAt 0, so with a live clock every position looked sim-time old and
// the health gate tripped permanently a few seconds into any run.
func TestOracleProviderNeverGoesStale(t *testing.T) {
	a := NewAgent(2, testbedModel(), posOnly(separatedFixes(0)))
	a.SetHealth(func() time.Duration { return time.Hour })
	if !a.Allowed(1, 10, 11) {
		t.Error("metadata-less provider tripped the health gate on clock advance")
	}
}

func TestHealthDisabledKeepsOracleBehavior(t *testing.T) {
	// Fixes an hour old by the clock the gate would read: without a clock
	// the agent trusts them; with one (the gate's only switch) it denies.
	fixes := separatedFixes(0)
	if a := NewAgent(2, testbedModel(), fixes); !a.Allowed(1, 10, 11) {
		t.Error("without a clock, fix age must not matter")
	}
	if a := healthAgent(fixes, func() time.Duration { return time.Hour }); a.Allowed(1, 10, 11) {
		t.Error("with a clock, hour-old fixes must fall back to DCF")
	}
}

func TestStalenessMarginVetoesMarginalPairing(t *testing.T) {
	// A marginal pairing — the observer's link 44 m from the ongoing one
	// rather than TestAgentAllowedCachesVerdicts' 50 m — that is allowed
	// with fresh fixes flips to denied when the fixes are 2 s old (still
	// under MaxFixAge), because 2 dB of staleness margin raises the SIR it
	// needs.
	base := func(age time.Duration) bool {
		now := age + 10*time.Second // keep ReportedAt non-negative (negative = oracle)
		fixes := separatedFixes(now - age)
		fixes[2] = loc.Fix{Pos: geom.Pt(44, 0), ReportedAt: now - age}
		fixes[11] = loc.Fix{Pos: geom.Pt(52, 0), ReportedAt: now - age}
		a := NewAgent(2, testbedModel(), fixes)
		a.SetRates(dsssRates())
		a.SetHealth(func() time.Duration { return now })
		return a.Allowed(1, 10, 11)
	}
	if !base(0) {
		t.Fatal("fresh fixes should allow the marginal pairing")
	}
	if base(2 * time.Second) {
		t.Error("2 dB of staleness margin should veto the marginal pairing")
	}
}

func TestCapRateStaleFixFallsBackToSlowestRate(t *testing.T) {
	now := 10 * time.Second
	fixes := fixTable{
		1:  {Pos: geom.Pt(0, 0), ReportedAt: now},
		11: {Pos: geom.Pt(8, 0), ReportedAt: now},
		2:  {Pos: geom.Pt(208, 0), ReportedAt: 0}, // far interferer, stale fix
	}
	a := NewAgent(1, testbedModel(), fixes)
	a.SetRates(dsssRates())
	a.SetHealth(func() time.Duration { return now })
	if got := a.CapRate(2, 99, 11, phy.RateDSSS11); got != phy.RateDSSS1 {
		t.Errorf("stale interferer fix capped at %v, want the slowest rate", got)
	}
	fixes[2] = loc.Fix{Pos: geom.Pt(208, 0), ReportedAt: now}
	if got := a.CapRate(2, 99, 11, phy.RateDSSS11); got != phy.RateDSSS11 {
		t.Errorf("fresh far interferer capped at %v, want 11M", got)
	}
	// Gating on, interferer fix missing: the slowest rate too (with gating
	// off the same input keeps the chosen rate; see
	// TestCapRateUnknownPositionPassesThrough).
	delete(fixes, 2)
	if got := a.CapRate(2, 99, 11, phy.RateDSSS11); got != phy.RateDSSS1 {
		t.Errorf("missing interferer fix capped at %v, want the slowest rate", got)
	}
}

func TestCapRateErrorRadiusShrinksCap(t *testing.T) {
	// Same geometry; a large reported error radius on the interferer pulls
	// the worst-case interferer distance in and must lower the cap.
	capWith := func(errRadius float64) phy.Rate {
		fixes := fixTable{
			1:  {Pos: geom.Pt(0, 0)},
			11: {Pos: geom.Pt(8, 0)},
			2:  {Pos: geom.Pt(108, 0), ErrorRadiusMeters: errRadius},
		}
		a := NewAgent(1, testbedModel(), fixes)
		a.SetRates(dsssRates())
		a.SetHealth(func() time.Duration { return 0 })
		return a.CapRate(2, 99, 11, phy.RateDSSS11)
	}
	if precise, fuzzy := capWith(0), capWith(80); fuzzy.BitsPerSec >= precise.BitsPerSec {
		t.Errorf("cap with 80 m error radius (%v) not below precise cap (%v)", fuzzy, precise)
	}
}

func TestCountEnvironmentFallsBackOnUnhealthyLink(t *testing.T) {
	now := 10 * time.Second
	fixes := fixTable{
		1: {Pos: geom.Pt(0, 0), ReportedAt: 0}, // own fix stale
		2: {Pos: geom.Pt(10, 0), ReportedAt: now},
		3: {Pos: geom.Pt(200, 0), ReportedAt: now},
	}
	a := NewAgent(1, testbedModel(), fixes)
	a.SetHealth(func() time.Duration { return now })
	reg := metrics.NewRegistry()
	a.SetMetrics(reg)
	h, c := a.CountEnvironment(2, []frame.NodeID{3})
	if h != 0 || c != 0 {
		t.Errorf("unhealthy link environment = (%d,%d), want defaults (0,0)", h, c)
	}
	if reg.Counter("comap.fallback.adapt").Value() != 1 {
		t.Errorf("fallback.adapt = %d", reg.Counter("comap.fallback.adapt").Value())
	}
}

// TestChurnRejoinWithinTTLRecomputesVerdict races per-node invalidation
// against churn: a peer leaves and rejoins at a new position within one fix
// TTL, so every fix involved still passes the health gate's age bound. Only
// the OnStationChanged invalidation stands between the agent and serving the
// pre-churn cached verdict — which the new geometry has made wrong.
func TestChurnRejoinWithinTTLRecomputesVerdict(t *testing.T) {
	now := 10 * time.Second
	fixes := separatedFixes(now)
	a := healthAgent(fixes, func() time.Duration { return now })
	reg := metrics.NewRegistry()
	a.SetMetrics(reg)

	if !a.Allowed(1, 10, 11) {
		t.Fatal("separated links should be allowed")
	}
	if a.Map().Len() != 1 {
		t.Fatal("verdict not cached")
	}

	// Node 10 leaves the network...
	delete(fixes, 10)
	a.OnStationChanged(10)
	if a.Map().Len() != 0 {
		t.Fatal("cached verdicts involving the departed node survived")
	}

	// ...and rejoins 200 ms later — well inside the 3 s MaxFixAge — right
	// next to the observer, so the ongoing link's receiver would now be
	// crushed by the observer's transmission.
	now += 200 * time.Millisecond
	fixes[10] = loc.Fix{Pos: geom.Pt(51, 0), ReportedAt: now}
	a.OnStationChanged(10)

	if a.Allowed(1, 10, 11) {
		t.Error("pre-churn cached allow served after rejoin: invalidation lost the race")
	}
	if hits, misses := a.Map().Hits(), a.Map().Misses(); hits != 0 || misses != 2 {
		t.Errorf("map hits/misses = %d/%d, want 0/2 (both decisions recomputed)", hits, misses)
	}
	if got := reg.Counter("comap.map.invalidate").Value(); got != 2 {
		t.Errorf("comap.map.invalidate = %d, want 2 (leave and rejoin)", got)
	}
}

func TestInvalidateNode(t *testing.T) {
	c := NewCoOccurrenceMap()
	c.Insert(Link{Src: 1, Dst: 2}, 5, true)  // survives
	c.Insert(Link{Src: 1, Dst: 2}, 3, true)  // column cleared
	c.Insert(Link{Src: 3, Dst: 4}, 5, false) // row cleared (src)
	c.Insert(Link{Src: 4, Dst: 3}, 5, true)  // row cleared (dst)
	c.Lookup(Link{Src: 1, Dst: 2}, 5)        // 1 hit
	c.Lookup(Link{Src: 9, Dst: 9}, 5)        // 1 miss
	hits, misses := c.Hits(), c.Misses()

	c.InvalidateNode(3)
	if _, found := c.Lookup(Link{Src: 3, Dst: 4}, 5); found {
		t.Error("row with node as src survived InvalidateNode")
	}
	if _, found := c.Lookup(Link{Src: 4, Dst: 3}, 5); found {
		t.Error("row with node as dst survived InvalidateNode")
	}
	if _, found := c.Lookup(Link{Src: 1, Dst: 2}, 3); found {
		t.Error("node's column in an unrelated row survived InvalidateNode")
	}
	if allowed, found := c.Lookup(Link{Src: 1, Dst: 2}, 5); !found || !allowed {
		t.Error("unrelated verdict lost by InvalidateNode")
	}
	// Counters keep counting across the invalidation (the lookups above
	// added 3 misses and 1 hit).
	if c.Hits() != hits+1 || c.Misses() != misses+3 {
		t.Errorf("counters after InvalidateNode = %d/%d, want %d/%d",
			c.Hits(), c.Misses(), hits+1, misses+3)
	}
}

func TestInvalidateNodeDropsEmptiedRows(t *testing.T) {
	c := NewCoOccurrenceMap()
	c.Insert(Link{Src: 1, Dst: 2}, 3, true)
	c.InvalidateNode(3)
	if c.Len() != 0 {
		t.Errorf("Len = %d after the only column was cleared", c.Len())
	}
}

func TestInvalidateCountersSurvive(t *testing.T) {
	// Satellite check: Invalidate clears entries but hit/miss accounting is
	// cumulative across the run.
	c := NewCoOccurrenceMap()
	c.Insert(Link{Src: 1, Dst: 2}, 3, true)
	c.Lookup(Link{Src: 1, Dst: 2}, 3) // hit
	c.Lookup(Link{Src: 1, Dst: 2}, 9) // miss
	c.Invalidate()
	if c.Len() != 0 {
		t.Error("Invalidate should clear entries")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d after Invalidate, want 1/1", c.Hits(), c.Misses())
	}
	c.Lookup(Link{Src: 1, Dst: 2}, 3) // miss on the cleared map
	if c.Hits() != 1 || c.Misses() != 2 {
		t.Errorf("hits/misses = %d/%d, counters must keep counting", c.Hits(), c.Misses())
	}
}

func TestOnStationChangedPrunesSeenLinks(t *testing.T) {
	a := NewAgent(2, testbedModel(), separatedFixes(0))
	a.ObserveLink(5, 6, 0)
	a.ObserveLink(7, 8, 0)
	a.Map().Insert(Link{Src: 5, Dst: 6}, 11, true)
	a.Map().Insert(Link{Src: 7, Dst: 8}, 11, true)
	a.OnStationChanged(5)
	if _, ok := a.seenIndex(Link{Src: 5, Dst: 6}); ok {
		t.Error("seen link involving the churned node survived")
	}
	if _, ok := a.seenIndex(Link{Src: 7, Dst: 8}); !ok {
		t.Error("unrelated seen link was dropped")
	}
	if _, found := a.Map().Lookup(Link{Src: 5, Dst: 6}, 11); found {
		t.Error("map row involving the churned node survived")
	}
	if _, found := a.Map().Lookup(Link{Src: 7, Dst: 8}, 11); !found {
		t.Error("unrelated map row was dropped")
	}
}
