package netsim

import (
	"repro/internal/frame"
)

// Network implements faults.ChurnController: station leave/re-join
// transitions driven by injected churn processes.
//
// The churn model is application-level: a departed station stops offering
// traffic (its own flows and the flows other stations run towards it pause),
// disappears from the location substrate, and every peer drops the cached
// co-occurrence verdicts and observed-link state involving it — per-node
// invalidation, not a full map rebuild. The radio front-end stays
// registered on the medium (a transceiver cannot be unplugged mid-run
// without perturbing unrelated shadowing streams), which is equivalent to a
// station that powered down its traffic and localization but not its NIC.

// StationLeave takes the station off the network. Unknown or already
// departed stations are a no-op.
func (n *Network) StationLeave(id frame.NodeID) {
	st, ok := n.Stations[id]
	if !ok || n.departed == nil || n.departed[id] {
		return
	}
	n.departed[id] = true

	st.Peer.Pause()
	if st.Locx != nil {
		st.Locx.Stop()
	}
	n.Locs.Deregister(id)
	if n.MapClient != nil {
		// Mirror the per-node invalidation on the control plane: the
		// service's verdict cache drops every entry involving the departed
		// station, exactly like each agent's OnStationChanged below.
		n.MapClient.InvalidateNode(id)
	}

	// Visit peers in topology order so churn transitions are deterministic.
	for _, node := range n.Top.Nodes {
		if node.ID == id {
			continue
		}
		other := n.Stations[node.ID]
		other.Peer.PauseTo(id)
		if other.Locx != nil {
			other.Locx.Forget(id)
		}
		if other.Agent != nil {
			other.Agent.OnStationChanged(id)
		}
	}
}

// StationRejoin brings a departed station back: it re-registers its position
// (forcing a fresh report), resumes traffic in both directions and has every
// peer invalidate its verdicts about the station again — it may have moved
// while away.
func (n *Network) StationRejoin(id frame.NodeID) {
	st, ok := n.Stations[id]
	if !ok || n.departed == nil || !n.departed[id] {
		return
	}
	delete(n.departed, id)

	if !n.Locs.ForceReport(id) {
		// Deregistered while away: re-register at the radio's current true
		// position (Register issues the fresh report).
		n.Locs.Register(id, n.Medium.Node(id).Position())
	}
	if n.MapClient != nil {
		// The station may have moved while away: drop its control-plane
		// verdicts again (the re-registration above already streamed its
		// fresh fix through the registry's commit hook).
		n.MapClient.InvalidateNode(id)
	}
	if st.Locx != nil {
		st.Locx.Start()
	}
	st.Peer.Resume()

	for _, node := range n.Top.Nodes {
		if node.ID == id {
			continue
		}
		other := n.Stations[node.ID]
		other.Peer.ResumeTo(id)
		if other.Agent != nil {
			other.Agent.OnStationChanged(id)
		}
	}
}
