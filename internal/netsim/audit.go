package netsim

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/audit"
	"repro/internal/frame"
	"repro/internal/sim"
	"repro/internal/topology"
)

// ManifestFor builds the ledger manifest for a scenario: the run's identity
// (scenario name, seed) plus the fingerprints that make two ledgers
// comparable — a digest over every causal Options knob except the seed, and
// a digest over the topology's nodes and flows. Exported for the ledger
// comparisons outside netsim (comap-audit, the experiments harness).
func ManifestFor(scenario string, top topology.Topology, opts Options) audit.Manifest {
	return audit.Manifest{
		Scenario:     scenario,
		Seed:         opts.Seed,
		OptionsFP:    fmt.Sprintf("%016x", optionsFingerprint(opts)),
		Topology:     top.Name,
		TopologyHash: fmt.Sprintf("%016x", topologyHash(top)),
	}
}

// optionsFingerprint digests every Options field that shapes the event
// stream, excluding Seed (ledgers for different seeds of the same scenario
// cell share a fingerprint) and the observational attachments (Trace,
// Profile, Audit — they must not change the fingerprint, or auditing a run
// would make it incomparable with itself).
func optionsFingerprint(opts Options) uint64 {
	// Normalize exactly as Build does, so a manifest computed from raw
	// options matches one computed inside Build.
	if opts.Header == 0 {
		opts.Header = HeaderEmbedded
	}
	h := audit.NewHasher()
	h.Int(int(opts.Protocol))
	h.Int(int(opts.Header))
	// PHY, propagation and CO-MAP model are pointer-free value structs;
	// their %+v rendering is deterministic and covers every field.
	h.String(fmt.Sprintf("%+v", opts.PHY))
	h.String(fmt.Sprintf("%+v", opts.Prop))
	h.String(fmt.Sprintf("%+v", opts.ComapModel))
	h.Float64(opts.TxPowerDBm)
	h.Float64(opts.CCAThresholdDBm)
	h.Int(opts.FixedCW)
	h.Int(opts.RTSThresholdBytes)
	h.Bool(opts.RateAdaptation)
	h.Int(opts.PayloadBytes)
	h.Float64(opts.CBRBitsPerSec)
	h.Bool(opts.AdaptTable != nil)
	// Selective-repeat window: no longer an option, hashed at the value
	// every run used so existing fingerprints still match.
	h.Int(0)
	h.Bool(opts.DisablePersistentConcurrency)
	h.Float64(opts.PositionErrorMeters)
	h.Bool(opts.InBandLocation)
	h.String(opts.Faults.String())
	// Location-health override: likewise hashed as the "unset" it always was.
	h.Bool(false)
	// ComapRemote is deliberately NOT hashed: a zero-RPC-fault remote run is
	// observationally identical to the in-process run, and its ledger must
	// stay comparable with (and equal to) the local golden. RPC fault
	// processes do shape the event stream, so they fingerprint when present.
	if opts.RPCFaults != nil {
		h.String("rpc:" + opts.RPCFaults.String())
	}
	// Hashed only when set, so pre-existing manifests keep their
	// fingerprints (paper-scale runs never override the margin).
	if opts.AudibilityMarginDB != 0 {
		h.Float64(opts.AudibilityMarginDB)
	}
	h.Int64(int64(opts.Duration))
	return h.Sum()
}

// topologyHash digests the topology: name, nodes (id, position, role) and
// flows, all in declaration order (topology literals are deterministic).
func topologyHash(top topology.Topology) uint64 {
	h := audit.NewHasher()
	h.String(top.Name)
	h.Int(len(top.Nodes))
	for _, n := range top.Nodes {
		h.Int(int(n.ID))
		h.Float64(n.Pos.X)
		h.Float64(n.Pos.Y)
		h.Bool(n.IsAP)
	}
	h.Int(len(top.Flows))
	for _, f := range top.Flows {
		h.Int(int(f.Src))
		h.Int(int(f.Dst))
	}
	// The shard world participates only when present, so the hashes of all
	// paper-scale (gridless) topologies are unchanged.
	if top.World != nil {
		o := top.World.Origin()
		h.Float64(o.X)
		h.Float64(o.Y)
		h.Float64(top.World.SizeMeters())
		h.Int(top.World.Order())
	}
	return h.Sum()
}

// registerAuditSources wires the deep protocol-state digests: the medium,
// every station's MAC (and CO-MAP agent) in ascending node-ID order, and
// the engine's RNG stream cursors.
func (n *Network) registerAuditSources(ledger *audit.Ledger) {
	ledger.RegisterDeep("channel", n.Medium.DigestState)
	ids := make([]frame.NodeID, 0, len(n.Stations))
	for id := range n.Stations {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		st := n.Stations[id]
		ledger.RegisterDeep(fmt.Sprintf("mac.%d", id), st.MAC.DigestState)
		if st.Agent != nil {
			ledger.RegisterDeep(fmt.Sprintf("comap.%d", id), st.Agent.DigestState)
		}
	}
	eng := n.Eng
	ledger.RegisterDeep("rng", func(h *audit.Hasher) {
		cursors := eng.RNGCursors()
		names := make([]string, 0, len(cursors))
		for name := range cursors {
			names = append(names, name)
		}
		sort.Strings(names)
		h.Int(len(names))
		for _, name := range names {
			h.String(name)
			h.Uint64(cursors[name])
		}
	})
}

// nondetTickInterval paces the test-only nondeterminism injection.
const nondetTickInterval = time.Millisecond

// startNondetInjection implements AuditConfig.InjectNondet: a recurring
// tick that ranges over the Stations map — Go randomizes map iteration
// order per ranging — and schedules one zero-delay no-op event per station
// in that order. The no-ops never touch protocol state, so the run's
// report stays byte-identical; but the owner sequence inside each tick's
// batch follows the iteration order, so two runs' TagComap ledger chains
// diverge almost immediately. This reproduces, under control, exactly the
// class of map-iteration bug PR 5 debugged by hand — the bisect acceptance
// test localizes it.
func (n *Network) startNondetInjection() {
	var tick func()
	tick = func() {
		for id := range n.Stations {
			n.Eng.ScheduleTagged(n.Eng.Now(), sim.TagComap, int32(id), func() {})
		}
		n.Eng.AfterTagged(nondetTickInterval, sim.TagComap, sim.NoOwner, tick)
	}
	n.Eng.AfterTagged(nondetTickInterval, sim.TagComap, sim.NoOwner, tick)
}
