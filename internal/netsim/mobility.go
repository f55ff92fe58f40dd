package netsim

import (
	"fmt"
	"time"

	"repro/internal/frame"
	"repro/internal/geom"
)

// walkTick is the mobility update cadence.
const walkTick = 100 * time.Millisecond

// ScheduleWalk moves a node in a straight line from its current position to
// dest at speedMps, starting at virtual time start. The walk updates the
// medium position and the location registry every 100 ms; the registry's
// movement threshold decides which steps actually re-report (the paper's
// mobility-management rule), and CO-MAP agents drop their cached
// co-occurrence verdicts when a new report lands. Call after Build and
// before Run.
func (n *Network) ScheduleWalk(id frame.NodeID, dest geom.Point, speedMps float64, start time.Duration) error {
	st, ok := n.Stations[id]
	if !ok {
		return fmt.Errorf("netsim: unknown node %d", id)
	}
	if speedMps <= 0 {
		return fmt.Errorf("netsim: non-positive speed")
	}
	origin := st.Node.Pos
	total := origin.DistanceTo(dest)
	if total == 0 {
		return nil
	}
	duration := time.Duration(total / speedMps * float64(time.Second))
	var step func()
	step = func() {
		elapsed := n.Eng.Now() - start
		t := float64(elapsed) / float64(duration)
		if t >= 1 {
			t = 1
		}
		pos := geom.Lerp(origin, dest, t)
		n.Medium.Node(id).SetPosition(pos)
		reportsBefore := n.Locs.Updates()
		n.Locs.Move(id, pos)
		if n.Locs.Updates() != reportsBefore {
			// A new position report is visible to everyone in oracle mode;
			// cached co-occurrence verdicts are stale.
			n.invalidateAgents()
		}
		if t < 1 {
			n.Eng.After(walkTick, step)
		}
	}
	n.Eng.Schedule(start, step)
	return nil
}

// invalidateAgents drops every CO-MAP agent's cached verdicts.
func (n *Network) invalidateAgents() {
	for _, st := range n.Stations {
		if st.Agent != nil {
			st.Agent.OnPositionsChanged()
		}
	}
}
