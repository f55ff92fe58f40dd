// Package topology builds the node layouts of the paper's experiments: the
// exposed-terminal sweep of Figs. 1/8, the hidden-terminal payload study of
// Fig. 2, the model-validation network of Fig. 7, the ten 3-client
// hidden-terminal configurations of Fig. 9 and the 3-AP/9-client office
// floor of Fig. 10.
//
// Geometry regimes: the testbed scenarios use 0 dBm transmit power with
// α=2.9/σ=4 (CS range ≈26 m), the NS-2 scenarios use Table I's 20 dBm with
// α=3.3/σ=5 (CS range ≈66 m, hidden-terminal zone beyond ≈103 m from the
// sender). Distances below are chosen to land each node unambiguously in its
// intended role under those models.
package topology

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/frame"
	"repro/internal/geom"
)

// Well-known node IDs. Clients are small integers, APs start at 101.
const (
	AP1 frame.NodeID = 101
	AP2 frame.NodeID = 102
	AP3 frame.NodeID = 103

	C1 frame.NodeID = 1
	C2 frame.NodeID = 2
)

// Node is one station placement.
type Node struct {
	ID   frame.NodeID
	Pos  geom.Point
	IsAP bool
}

// Flow is one directed traffic stream.
type Flow struct {
	Src frame.NodeID
	Dst frame.NodeID
}

// Topology is a named node layout with its traffic matrix.
type Topology struct {
	Name  string
	Nodes []Node
	Flows []Flow
	// World, when non-nil, bounds the layout to a spatial grid: Validate
	// then rejects nodes placed outside it, and the channel shards its
	// per-pair state by grid cell instead of keeping dense N×N matrices.
	// Paper-scale topologies leave it nil (single implicit cell, dense
	// behavior bit-for-bit).
	World *Grid
}

// Senders returns the distinct flow sources, in flow order.
func (t Topology) Senders() []frame.NodeID {
	seen := make(map[frame.NodeID]bool)
	var out []frame.NodeID
	for _, f := range t.Flows {
		if !seen[f.Src] {
			seen[f.Src] = true
			out = append(out, f.Src)
		}
	}
	return out
}

// Validate checks that node IDs are unique and every flow references
// existing nodes.
func (t Topology) Validate() error {
	seen := make(map[frame.NodeID]bool, len(t.Nodes))
	for _, n := range t.Nodes {
		if seen[n.ID] {
			return fmt.Errorf("topology %q: duplicate node %d", t.Name, n.ID)
		}
		seen[n.ID] = true
		if t.World != nil {
			if _, err := t.World.CellOf(n.Pos); err != nil {
				return fmt.Errorf("topology %q: node %d: %w", t.Name, n.ID, err)
			}
		}
	}
	for _, f := range t.Flows {
		if !seen[f.Src] || !seen[f.Dst] {
			return fmt.Errorf("topology %q: flow %d->%d references missing node", t.Name, f.Src, f.Dst)
		}
		if f.Src == f.Dst {
			return fmt.Errorf("topology %q: self flow at %d", t.Name, f.Src)
		}
	}
	return nil
}

// ETSweep is the Fig. 1/8 testbed: AP1 and AP2 36 m apart, C1 8 m from AP1
// transmitting uplink, and C2 (uplink to AP2) placed c2FromAP1 meters from
// AP1 along the AP1–AP2 line. For c2FromAP1 roughly in [20, 34] under the
// testbed radio model, C2 is an exposed terminal of the C1→AP1 link.
func ETSweep(c2FromAP1 float64) Topology {
	return Topology{
		Name: fmt.Sprintf("et-sweep-%.0fm", c2FromAP1),
		Nodes: []Node{
			{ID: AP1, Pos: geom.Pt(0, 0), IsAP: true},
			{ID: AP2, Pos: geom.Pt(36, 0), IsAP: true},
			{ID: C1, Pos: geom.Pt(8, 0)},
			{ID: C2, Pos: geom.Pt(c2FromAP1, 0)},
		},
		Flows: []Flow{
			{Src: C1, Dst: AP1},
			{Src: C2, Dst: AP2},
		},
	}
}

// Role classifies a client of the second AP relative to the measured
// C1→AP1 link (Fig. 9's ten configurations permute these roles).
type Role int

// Role values.
const (
	// RoleContender shares C1's channel via carrier sense.
	RoleContender Role = iota + 1
	// RoleHidden cannot sense C1 but interferes at AP1.
	RoleHidden
	// RoleIndependent neither senses C1 nor reaches AP1.
	RoleIndependent
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleContender:
		return "contender"
	case RoleHidden:
		return "hidden"
	case RoleIndependent:
		return "independent"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Role zone anchors in the NS-2 radio regime (20 dBm, α=3.3, Tcs=-80 dBm):
// the measured link is C1(0,0)→AP1(60,0). A contender sits well inside C1's
// ~103 m 90%-CS-miss range (it senses C1 reliably); a hidden terminal sits
// beyond it yet lands its signal at AP1 as strongly as C1's own (SIR ≈ 0 dB
// — every overlap corrupts the frame); an independent node is outside both
// C1's CS range and AP1's T_SIR=10 interference range (~271 m for a 60 m
// link). Multiple clients of the same role fan out perpendicular to the
// link axis.
var roleAnchors = map[Role]geom.Point{
	RoleContender:   geom.Pt(45, 25),
	RoleHidden:      geom.Pt(120, 0),
	RoleIndependent: geom.Pt(340, 0),
}

// rolePos places the i-th client of a role, spreading same-role clients
// 12 m apart perpendicular to the link axis.
func rolePos(r Role, i int) geom.Point {
	anchor := roleAnchors[r]
	return anchor.Add(geom.Vec(0, float64(i)*12))
}

// HTRoles builds a Fig. 9-style network: the measured link C1→AP1 plus one
// client per entry of roles. Contenders and hidden terminals associate with
// AP2 (placed so that even its ACK bursts stay SIR-harmless at AP1);
// independents are too far from AP2 and get their own AP3 (the paper's
// "independent node whose transmission has no impact on C1's" only requires
// an active unrelated link).
func HTRoles(roles []Role) Topology {
	t := Topology{
		Name: fmt.Sprintf("ht-roles-%v", roles),
		Nodes: []Node{
			{ID: AP1, Pos: geom.Pt(60, 0), IsAP: true},
			{ID: AP2, Pos: geom.Pt(140, 70), IsAP: true},
			{ID: AP3, Pos: geom.Pt(350, 40), IsAP: true},
			{ID: C1, Pos: geom.Pt(0, 0)},
		},
		Flows: []Flow{{Src: C1, Dst: AP1}},
	}
	counts := make(map[Role]int)
	for i, r := range roles {
		id := frame.NodeID(2 + i)
		t.Nodes = append(t.Nodes, Node{ID: id, Pos: rolePos(r, counts[r])})
		counts[r]++
		dst := AP2
		if r == RoleIndependent {
			dst = AP3
		}
		t.Flows = append(t.Flows, Flow{Src: id, Dst: dst})
	}
	return t
}

// Fig9Roles enumerates the ten distinct multisets of three roles over
// {contender, hidden, independent} — the paper's "10 different network
// topologies" formed by repositioning three clients.
func Fig9Roles() [][]Role {
	all := []Role{RoleContender, RoleHidden, RoleIndependent}
	var out [][]Role
	for i, a := range all {
		for j := i; j < len(all); j++ {
			for k := j; k < len(all); k++ {
				out = append(out, []Role{a, all[j], all[k]})
			}
		}
	}
	return out
}

// HTPayload is the Fig. 2 testbed shape in the NS-2 radio regime: the
// measured link C1→AP1 with nHidden hidden terminals (clients of AP2 placed
// in the hidden zone). nHidden = 0 places the second client in the
// independent zone instead, reproducing the "no HT" curve.
func HTPayload(nHidden int) Topology {
	roles := make([]Role, 0, maxInt(nHidden, 1))
	for i := 0; i < nHidden; i++ {
		roles = append(roles, RoleHidden)
	}
	if nHidden == 0 {
		roles = append(roles, RoleIndependent)
	}
	t := HTRoles(roles)
	t.Name = fmt.Sprintf("ht-payload-%dht", nHidden)
	return t
}

// Fig7 builds the model-validation network: the measured link C1→AP1 (60 m)
// with contenders clustered around C1 (all transmitting to AP1, mutual
// carrier sense) and hidden terminals clustered at 120 m (transmitting to
// their own AP2) whose signals land at AP1 as strongly as C1's — so any
// overlap corrupts the frame, matching the analytical model's collision
// assumption.
func Fig7(contenders, hidden int) Topology {
	t := Topology{
		Name: fmt.Sprintf("fig7-c%d-h%d", contenders, hidden),
		Nodes: []Node{
			{ID: AP1, Pos: geom.Pt(60, 0), IsAP: true},
			{ID: AP2, Pos: geom.Pt(180, 0), IsAP: true},
			{ID: C1, Pos: geom.Pt(0, 0)},
		},
		Flows: []Flow{{Src: C1, Dst: AP1}},
	}
	next := frame.NodeID(2)
	for i := 0; i < contenders; i++ {
		// Contenders ring C1 at 10 m: mutual carrier sense with C1 and each
		// other, same receiver.
		angle := 2 * math.Pi * float64(i) / float64(maxInt(contenders, 1))
		pos := geom.Pt(10*math.Cos(angle), 10*math.Sin(angle))
		t.Nodes = append(t.Nodes, Node{ID: next, Pos: pos})
		t.Flows = append(t.Flows, Flow{Src: next, Dst: AP1})
		next++
	}
	for i := 0; i < hidden; i++ {
		id := frame.NodeID(50 + i)
		angle := 2 * math.Pi * float64(i) / float64(maxInt(hidden, 1))
		pos := geom.Pt(120+8*math.Cos(angle), 8*math.Sin(angle))
		t.Nodes = append(t.Nodes, Node{ID: id, Pos: pos})
		t.Flows = append(t.Flows, Flow{Src: id, Dst: AP2})
	}
	return t
}

// LargeScale builds one Fig. 10 office-floor instance: three co-channel APs
// roughly 60 m apart and nine clients placed uniformly at random around
// them, each associated with its nearest AP, with two-way traffic on every
// client (uplink and downlink), as in Table I's setup.
func LargeScale(rng *rand.Rand) Topology {
	aps := []Node{
		{ID: AP1, Pos: geom.Pt(0, 0), IsAP: true},
		{ID: AP2, Pos: geom.Pt(95, 0), IsAP: true},
		{ID: AP3, Pos: geom.Pt(190, 0), IsAP: true},
	}
	t := Topology{Name: "large-scale", Nodes: aps}
	for i := 0; i < 9; i++ {
		// Place the client near a random AP, uniform in a 5–35 m annulus:
		// close enough that its uplink tolerates cross-cell concurrency,
		// far enough that exposed/hidden relations appear (matching the
		// paper's reported 47.6% ET / 19.4% HT link shares).
		home := aps[rng.Intn(len(aps))]
		radius := 5 + 30*math.Sqrt(rng.Float64())
		theta := 2 * math.Pi * rng.Float64()
		pos := home.Pos.Add(geom.Vec(radius*math.Cos(theta), radius*math.Sin(theta)))
		id := frame.NodeID(1 + i)
		t.Nodes = append(t.Nodes, Node{ID: id, Pos: pos})
		// Associate with the nearest AP (which may differ from the home AP
		// the position was drawn around).
		best := aps[0]
		for _, ap := range aps[1:] {
			if pos.DistanceTo(ap.Pos) < pos.DistanceTo(best.Pos) {
				best = ap
			}
		}
		t.Flows = append(t.Flows,
			Flow{Src: id, Dst: best.ID},
			Flow{Src: best.ID, Dst: id},
		)
	}
	return t
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
