package comap

import (
	"testing"

	"repro/internal/bianchi"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/loc"
	"repro/internal/phy"
)

func TestCoOccurrenceMapLookupInsert(t *testing.T) {
	c := NewCoOccurrenceMap()
	l := Link{Src: 1, Dst: 10}
	if _, found := c.Lookup(l, 11); found {
		t.Error("empty map should miss")
	}
	c.Insert(l, 11, true)
	c.Insert(l, 12, false)
	if allowed, found := c.Lookup(l, 11); !found || !allowed {
		t.Error("inserted true verdict lost")
	}
	if allowed, found := c.Lookup(l, 12); !found || allowed {
		t.Error("inserted false verdict lost")
	}
	if _, found := c.Lookup(Link{Src: 2, Dst: 10}, 11); found {
		t.Error("different ongoing link should miss")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
	if c.Hits() != 2 || c.Misses() != 2 {
		t.Errorf("hits/misses = %d/%d", c.Hits(), c.Misses())
	}
}

func TestCoOccurrenceMapInvalidate(t *testing.T) {
	c := NewCoOccurrenceMap()
	c.Insert(Link{Src: 1, Dst: 2}, 3, true)
	c.Invalidate()
	if c.Len() != 0 {
		t.Error("Invalidate should clear entries")
	}
	if _, found := c.Lookup(Link{Src: 1, Dst: 2}, 3); found {
		t.Error("entry survived Invalidate")
	}
}

func TestAgentAllowedCachesVerdicts(t *testing.T) {
	m := testbedModel()
	p := loc.Static{
		1:  geom.Pt(0, 0),
		10: geom.Pt(10, 0),
		2:  geom.Pt(50, 0),
		11: geom.Pt(58, 0),
	}
	a := NewAgent(2, m, p)
	if !a.Allowed(1, 10, 11) {
		t.Fatal("separated links should be allowed")
	}
	missesAfterFirst := a.Map().Misses()
	// Second consult: cache hit, no recomputation path.
	if !a.Allowed(1, 10, 11) {
		t.Fatal("cached verdict changed")
	}
	if a.Map().Misses() != missesAfterFirst {
		t.Error("second lookup should not miss")
	}
	if a.Map().Hits() == 0 {
		t.Error("expected a cache hit")
	}
}

func TestAgentAllowedDeniesNearbyLink(t *testing.T) {
	m := testbedModel()
	p := loc.Static{
		1:  geom.Pt(0, 0),
		10: geom.Pt(10, 0),
		2:  geom.Pt(12, 0), // right next to the ongoing receiver
		11: geom.Pt(20, 0),
	}
	a := NewAgent(2, m, p)
	if a.Allowed(1, 10, 11) {
		t.Error("node near ongoing receiver must not transmit")
	}
	// The negative verdict is cached too.
	if _, found := a.Map().Lookup(Link{Src: 1, Dst: 10}, 11); !found {
		t.Error("negative verdict should be cached")
	}
}

func TestAgentAllowedUnknownPositions(t *testing.T) {
	m := testbedModel()
	a := NewAgent(2, m, loc.Static{})
	if a.Allowed(1, 10, 11) {
		t.Error("no position info: concurrency must be denied")
	}
}

func TestAgentOnPositionsChanged(t *testing.T) {
	m := testbedModel()
	p := loc.Static{
		1:  geom.Pt(0, 0),
		10: geom.Pt(10, 0),
		2:  geom.Pt(50, 0),
		11: geom.Pt(58, 0),
	}
	a := NewAgent(2, m, p)
	if !a.Allowed(1, 10, 11) {
		t.Fatal("setup: should be allowed")
	}
	// The node moves right next to the ongoing receiver; after invalidation
	// the fresh verdict must flip.
	p[2] = geom.Pt(12, 0)
	a.OnPositionsChanged()
	if a.Allowed(1, 10, 11) {
		t.Error("stale verdict survived position change")
	}
}

func TestAgentCountEnvironmentAndAdaptation(t *testing.T) {
	m := testbedModel()
	p := loc.Static{
		1:  geom.Pt(0, 0),  // me
		10: geom.Pt(15, 0), // my AP
		3:  geom.Pt(45, 0), // hidden terminal
		4:  geom.Pt(10, 0), // contender
		6:  geom.Pt(0, 20), // contender
	}
	a := NewAgent(1, m, p)
	candidates := []frame.NodeID{3, 4, 6}
	h, c := a.CountEnvironment(10, candidates)
	if h != 1 || c != 2 {
		t.Fatalf("h=%d c=%d, want 1/2", h, c)
	}
	base := bianchi.FromPHY(phy.DSSS(), phy.RateDSSS11)
	tbl := bianchi.NewAdaptationTable(base, 3, 6, []int{63, 255, 1023}, nil)
	if s := tbl.Lookup(a.CountEnvironment(10, candidates)); s != tbl.Lookup(1, 2) {
		t.Errorf("adaptation = %+v, want table (1,2) entry", s)
	}
}
