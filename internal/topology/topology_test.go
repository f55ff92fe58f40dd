package topology

import (
	"math/rand"
	"testing"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/radio"
)

func TestAllBuildersValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tops := []Topology{
		ETSweep(12), ETSweep(36),
		HTPayload(0), HTPayload(1), HTPayload(3),
		Fig7(5, 0), Fig7(5, 3), Fig7(5, 5), Fig7(0, 0),
		LargeScale(rng),
	}
	for _, roles := range Fig9Roles() {
		tops = append(tops, HTRoles(roles))
	}
	for _, top := range tops {
		if err := top.Validate(); err != nil {
			t.Errorf("%s: %v", top.Name, err)
		}
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	dup := Topology{Name: "dup", Nodes: []Node{{ID: 1}, {ID: 1}}}
	if dup.Validate() == nil {
		t.Error("duplicate node accepted")
	}
	missing := Topology{Name: "missing", Nodes: []Node{{ID: 1}}, Flows: []Flow{{Src: 1, Dst: 2}}}
	if missing.Validate() == nil {
		t.Error("missing flow endpoint accepted")
	}
	self := Topology{Name: "self", Nodes: []Node{{ID: 1}}, Flows: []Flow{{Src: 1, Dst: 1}}}
	if self.Validate() == nil {
		t.Error("self flow accepted")
	}
}

// nodeOf returns the placement of id in top, failing the test if absent.
func nodeOf(t *testing.T, top Topology, id frame.NodeID) Node {
	t.Helper()
	for _, n := range top.Nodes {
		if n.ID == id {
			return n
		}
	}
	t.Fatalf("%s has no node %d", top.Name, id)
	return Node{}
}

func TestNodeLookupAndSenders(t *testing.T) {
	top := ETSweep(20)
	if n := nodeOf(t, top, C1); n.Pos != geom.Pt(8, 0) {
		t.Errorf("C1 = %+v", n)
	}
	s := top.Senders()
	if len(s) != 2 || s[0] != C1 || s[1] != C2 {
		t.Errorf("Senders = %v", s)
	}
}

func TestETSweepGeometry(t *testing.T) {
	top := ETSweep(25)
	c2 := nodeOf(t, top, C2)
	ap1 := nodeOf(t, top, AP1)
	if got := c2.Pos.DistanceTo(ap1.Pos); got != 25 {
		t.Errorf("C2-AP1 distance = %v", got)
	}
	// In the ET region, C1 and C2 are inside each other's deterministic CS
	// range under the testbed model (0 dBm, alpha 2.9, Tcs -81: ~26 m).
	model := radio.NewLogNormal2400(2.9, 4)
	csRange := model.MeanRangeFor(0, -81)
	c1 := nodeOf(t, top, C1)
	if d := c1.Pos.DistanceTo(c2.Pos); d >= csRange {
		t.Errorf("C1-C2 distance %v not inside CS range %v", d, csRange)
	}
}

func TestFig9RolesEnumeration(t *testing.T) {
	roles := Fig9Roles()
	if len(roles) != 10 {
		t.Fatalf("Fig9Roles returned %d configurations, want 10", len(roles))
	}
	seen := make(map[string]bool)
	for _, r := range roles {
		if len(r) != 3 {
			t.Fatalf("config %v has %d roles", r, len(r))
		}
		key := r[0].String() + r[1].String() + r[2].String()
		if seen[key] {
			t.Errorf("duplicate configuration %v", r)
		}
		seen[key] = true
	}
}

func TestHTRolesZones(t *testing.T) {
	// Verify the role anchors land in the intended zones under the NS-2
	// model (20 dBm, alpha 3.3, sigma 5, Tcs -80).
	model := radio.NewLogNormal2400(3.3, 5)
	top := HTRoles([]Role{RoleContender, RoleHidden, RoleIndependent})
	c1 := nodeOf(t, top, C1)
	ap1 := nodeOf(t, top, AP1)

	contender := nodeOf(t, top, 2)
	hidden := nodeOf(t, top, 3)
	indep := nodeOf(t, top, 4)

	// Contender senses C1 with high probability.
	if p := model.ProbBelowCS(-80, 20, c1.Pos.DistanceTo(contender.Pos)); p > 0.5 {
		t.Errorf("contender CS-miss prob = %v, want low", p)
	}
	// Hidden node misses C1 with > 90% probability (the paper's HT rule)...
	if p := model.ProbBelowCS(-80, 20, c1.Pos.DistanceTo(hidden.Pos)); p <= 0.9 {
		t.Errorf("hidden CS-miss prob = %v, want > 0.9", p)
	}
	// ...and still threatens AP1's reception (PRR below 95%).
	d := c1.Pos.DistanceTo(ap1.Pos)
	r := hidden.Pos.DistanceTo(ap1.Pos)
	if prr := model.PRR(10, d, r); prr >= 0.95 {
		t.Errorf("hidden node PRR impact = %v, want < 0.95", prr)
	}
	// Independent node neither senses C1 nor threatens AP1.
	if p := model.ProbBelowCS(-80, 20, c1.Pos.DistanceTo(indep.Pos)); p <= 0.9 {
		t.Errorf("independent CS-miss prob = %v, want > 0.9", p)
	}
	if prr := model.PRR(10, d, indep.Pos.DistanceTo(ap1.Pos)); prr < 0.95 {
		t.Errorf("independent node harms the link: PRR %v", prr)
	}
}

func TestHTRolesSpreadsSameRoleClients(t *testing.T) {
	top := HTRoles([]Role{RoleHidden, RoleHidden, RoleHidden})
	a := nodeOf(t, top, 2)
	b := nodeOf(t, top, 3)
	c := nodeOf(t, top, 4)
	if a.Pos == b.Pos || b.Pos == c.Pos || a.Pos == c.Pos {
		t.Error("same-role clients must not overlap")
	}
}

func TestHTPayload(t *testing.T) {
	none := HTPayload(0)
	if len(none.Nodes) != 5 { // 3 APs + C1 + 1 independent client
		t.Errorf("HTPayload(0) nodes = %d", len(none.Nodes))
	}
	three := HTPayload(3)
	if len(three.Nodes) != 7 {
		t.Errorf("HTPayload(3) nodes = %d", len(three.Nodes))
	}
}

func TestFig7Population(t *testing.T) {
	top := Fig7(5, 3)
	clients, hts := 0, 0
	for _, n := range top.Nodes {
		if n.IsAP {
			continue
		}
		if n.ID >= 50 {
			hts++
		} else {
			clients++
		}
	}
	if clients != 6 { // C1 + 5 contenders
		t.Errorf("clients = %d", clients)
	}
	if hts != 3 {
		t.Errorf("hidden terminals = %d", hts)
	}
	// All contenders mutually within the NS-2 CS range (~66 m): max pairwise
	// distance on the 10 m ring is 20 m.
	model := radio.NewLogNormal2400(3.3, 5)
	cs := model.MeanRangeFor(20, -80)
	for _, a := range top.Nodes {
		for _, b := range top.Nodes {
			if a.IsAP || b.IsAP || a.ID >= 50 || b.ID >= 50 || a.ID == b.ID {
				continue
			}
			if d := a.Pos.DistanceTo(b.Pos); d >= cs {
				t.Errorf("contenders %d-%d at %v m exceed CS range %v", a.ID, b.ID, d, cs)
			}
		}
	}
}

func TestLargeScaleProperties(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		top := LargeScale(rng)
		if err := top.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		aps, clients := 0, 0
		for _, n := range top.Nodes {
			if n.IsAP {
				aps++
			} else {
				clients++
			}
		}
		if aps != 3 || clients != 9 {
			t.Fatalf("seed %d: %d APs, %d clients", seed, aps, clients)
		}
		if len(top.Flows) != 18 {
			t.Fatalf("seed %d: %d flows, want 18 (two-way per client)", seed, len(top.Flows))
		}
		// Every client's flow destination is its nearest AP.
		for _, f := range top.Flows {
			if f.Src >= 100 {
				continue // downlink
			}
			client := nodeOf(t, top, f.Src)
			ap := nodeOf(t, top, f.Dst)
			for _, n := range top.Nodes {
				if n.IsAP && client.Pos.DistanceTo(n.Pos) < client.Pos.DistanceTo(ap.Pos)-1e-9 {
					t.Errorf("seed %d: client %d associated with %d but %d is closer",
						seed, f.Src, f.Dst, n.ID)
				}
			}
		}
	}
}

func TestRoleString(t *testing.T) {
	if RoleContender.String() != "contender" || RoleHidden.String() != "hidden" ||
		RoleIndependent.String() != "independent" {
		t.Error("role strings wrong")
	}
	if Role(42).String() == "" {
		t.Error("unknown role should stringify")
	}
}

var _ = frame.NodeID(0)
