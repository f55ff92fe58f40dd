// Package netsim assembles complete simulated WLANs: it takes a topology and
// a protocol configuration and wires up the medium, MACs, CO-MAP agents,
// location service and traffic sources, then runs the scenario and collects
// per-flow goodput. The experiment harness (internal/experiments) and the
// examples are thin layers over this package.
package netsim

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/bianchi"
	"repro/internal/channel"
	"repro/internal/comap"
	"repro/internal/faults"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/loc"
	"repro/internal/locx"
	"repro/internal/mac"
	"repro/internal/mapsvc"
	"repro/internal/metrics"
	"repro/internal/phy"
	"repro/internal/prof"
	"repro/internal/radio"
	"repro/internal/rate"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Protocol selects the channel-access protocol under test.
type Protocol int

// Protocol values.
const (
	// ProtocolDCF is the baseline 802.11 DCF (no location input).
	ProtocolDCF Protocol = iota + 1
	// ProtocolComap is the full CO-MAP stack: discovery headers,
	// co-occurrence map concurrency, selective-repeat ARQ and (optionally)
	// hidden-terminal-aware packet-size/CW adaptation.
	ProtocolComap
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case ProtocolDCF:
		return "DCF"
	case ProtocolComap:
		return "CO-MAP"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// HeaderMode selects how CO-MAP's discovery header is realised (paper §V).
type HeaderMode int

// HeaderMode values.
const (
	// HeaderEmbedded is "method one": an extra FCS after the MAC addresses
	// lets the PHY pass (src, dst) up before the payload arrives; costs
	// 4 bytes.
	HeaderEmbedded HeaderMode = iota + 1
	// HeaderFrame is "method two" (the testbed implementation): a separate
	// small header packet precedes every data frame.
	HeaderFrame
)

// Options parameterises a scenario run.
type Options struct {
	Seed     int64
	Protocol Protocol
	// Header selects the discovery-header realisation for CO-MAP (defaults
	// to HeaderEmbedded).
	Header HeaderMode

	// PHY and radio environment.
	PHY             phy.Params
	Prop            radio.LogNormal
	TxPowerDBm      float64
	CCAThresholdDBm float64
	// AudibilityMarginDB overrides the channel's audibility floor (noise −
	// margin) used to prune inaudible pairs; 0 keeps the channel default.
	// City-scale runs tighten it so the sparse neighbor sets stay local.
	AudibilityMarginDB float64

	// FixedCW > 0 selects a constant contention window; 0 selects binary
	// exponential backoff.
	FixedCW int
	// RTSThresholdBytes enables the RTS/CTS handshake (a hidden-terminal
	// baseline the paper compares against conceptually; 0 = disabled as in
	// all its experiments). Only meaningful with ProtocolDCF.
	RTSThresholdBytes int
	// RateAdaptation enables the Minstrel controller over PHY.Rates;
	// otherwise the lowest rate is used throughout.
	RateAdaptation bool

	// PayloadBytes is the application payload per frame (before CO-MAP
	// adaptation).
	PayloadBytes int
	// CBRBitsPerSec limits each flow's offered load; 0 means saturated.
	CBRBitsPerSec float64

	// CO-MAP parameters (ignored for ProtocolDCF).
	ComapModel comap.Model
	// AdaptTable enables hidden-terminal packet-size/CW adaptation.
	AdaptTable *bianchi.AdaptationTable
	// DisablePersistentConcurrency turns off the paper's testbed-style
	// carrier-sense bypass, leaving only per-header chained joins — an
	// ablation knob for the design-choice benchmarks.
	DisablePersistentConcurrency bool
	// PositionErrorMeters injects uniform-disc localization error.
	PositionErrorMeters float64
	// InBandLocation exchanges positions over the simulated air (package
	// locx) instead of the oracle registry: CO-MAP agents then work from
	// learned, possibly stale neighbor tables, and the exchange's frames
	// cost real airtime.
	InBandLocation bool

	// Faults activates the fault-injection layer: the spec's processes drive
	// location-report loss/delay, localization outages, bias bursts, station
	// churn and channel events, all off the sim clock and seeded streams so
	// faulted runs stay bit-reproducible.
	Faults *faults.Spec
	// ComapRemote routes every CO-MAP verdict miss through the mapsvc
	// control plane (location ingest, sharded verdict cache, snapshot+WAL
	// crash model) over the deterministic in-process transport. With a nil
	// RPCFaults spec every call completes inline on the sim clock — no extra
	// events, no extra RNG draws — so remote runs are bit-identical to
	// in-process CO-MAP (asserted by the golden-report suite). Requires
	// ProtocolComap and the oracle registry (not InBandLocation).
	ComapRemote bool
	// RPCFaults injects control-plane fault processes (rpcloss, rpcdelay,
	// rpcpartition, rpcrestart) against the remote verdict path: calls gain
	// fates drawn from seeded streams, restart windows crash and recover the
	// service, and the client walks the degradation ladder. Requires
	// ComapRemote; non-RPC kinds belong in Faults.
	RPCFaults *faults.Spec

	// Trace, when set, receives the full frame-lifecycle event stream of the
	// run: PHY rx/txdone per node, channel txstart, MAC decision events
	// (enqueue/backoff/tx/ack/timeout/drop, exposed-terminal joins) and
	// CO-MAP decision events (concurrency grant/deny, HT adaptation).
	// Tracing is purely observational — traced runs are bit-identical to
	// untraced ones.
	Trace trace.Sink
	// TraceEnergy additionally records every aggregate-energy change per
	// node (very verbose). Ignored unless Trace is set.
	TraceEnergy bool

	// Profile, when set, attaches the attribution profiler and flight
	// recorder (internal/prof) to the engine's dispatch loop. Profiling is
	// purely observational — profiled runs are bit-identical to unprofiled
	// ones (asserted by the golden-report suite).
	Profile *prof.Config

	// Audit, when set, attaches the determinism ledger (internal/audit):
	// per-time-slice digest chains over the dispatch stream attributed by
	// subsystem tag, periodic deep digests of channel/MAC/CO-MAP state and
	// RNG stream cursors, headed by a run manifest. Auditing is purely
	// observational — audited runs are bit-identical to unaudited ones
	// (asserted by the golden-ledger suite). Call Network.Audit.Finish via
	// Run (automatic) and check Network.Audit.Err after the run when a
	// sink is configured.
	Audit *AuditConfig

	// Duration of the measured run.
	Duration time.Duration
}

// AuditConfig parameterises the determinism ledger attached by Build.
type AuditConfig struct {
	audit.Config
	// Scenario names the run in the ledger manifest; comparisons refuse
	// ledgers whose scenario names differ.
	Scenario string
}

// TestbedOptions returns the paper's testbed configuration (§VI-A):
// 802.11b DSSS rates, 0 dBm, α=2.9, σ=4 dB, Tcs=-81 dBm, Minstrel enabled.
// The rate set is limited to DSSS because the paper's reported testbed
// goodputs (1–4.5 Mbps across 8–36 m at 0 dBm) correspond to 802.11b-class
// operation; see EXPERIMENTS.md.
func TestbedOptions() Options {
	p := phy.DSSS()
	prop := radio.NewLogNormal2400(2.9, 4)
	return Options{
		Protocol:        ProtocolDCF,
		PHY:             p,
		Prop:            prop,
		TxPowerDBm:      0,
		CCAThresholdDBm: -81,
		FixedCW:         32,
		RateAdaptation:  true,
		PayloadBytes:    1000,
		ComapModel: comap.Model{
			Prop:           prop,
			TxPowerDBm:     0,
			TSIRdB:         4, // lowest-rate threshold, as in the paper
			TPRR:           0.8,
			TcsDBm:         -81,
			CSMissProb:     0.9,
			SensitivityDBm: -94,
		},
		Duration: 5 * time.Second,
	}
}

// NS2Options returns the paper's Table I configuration: 6 Mbps fixed rate,
// 20 dBm, α=3.3, σ=5 dB, T_PRR=95%, Tcs=-80 dBm, T_SIR=10.
func NS2Options() Options {
	p := phy.NS2Table1()
	prop := radio.NewLogNormal2400(3.3, 5)
	return Options{
		Protocol:        ProtocolDCF,
		PHY:             p,
		Prop:            prop,
		TxPowerDBm:      20,
		CCAThresholdDBm: -80,
		FixedCW:         32,
		RateAdaptation:  false,
		PayloadBytes:    1000,
		ComapModel: comap.Model{
			Prop:           prop,
			TxPowerDBm:     20,
			TSIRdB:         10,
			TPRR:           0.95,
			TcsDBm:         -80,
			CSMissProb:     0.9,
			SensitivityDBm: -94,
		},
		Duration: 5 * time.Second,
	}
}

// CityOptions returns the city-scale configuration used with
// topology.CityScale worlds: 6 Mbps fixed rate at 30 dBm under a dense-urban
// α=4, σ=2 dB channel. The tight audibility margin (6 dB under the noise
// floor) keeps every station's sparse neighbor set to its local cell
// neighborhood — the regime the spatial shard grid is designed for — while
// the 10–80 m uplinks stay comfortably above sensitivity.
func CityOptions() Options {
	p := phy.NS2Table1()
	prop := radio.NewLogNormal2400(4.0, 2.0)
	return Options{
		Protocol:           ProtocolDCF,
		PHY:                p,
		Prop:               prop,
		TxPowerDBm:         30,
		CCAThresholdDBm:    -80,
		AudibilityMarginDB: 6,
		FixedCW:            32,
		RateAdaptation:     false,
		PayloadBytes:       1000,
		ComapModel: comap.Model{
			Prop:           prop,
			TxPowerDBm:     30,
			TSIRdB:         10,
			TPRR:           0.95,
			TcsDBm:         -80,
			CSMissProb:     0.9,
			SensitivityDBm: -94,
		},
		Duration: 5 * time.Second,
	}
}

// Station is one assembled node.
type Station struct {
	Node  topology.Node
	MAC   *mac.MAC
	Agent *comap.Agent // nil for DCF
	// Peer drives the station's outgoing streams and measures what it
	// receives, under either protocol. For CO-MAP it is Endpoint's.
	Peer *traffic.Peer
	// Endpoint is the CO-MAP link layer around Peer: selective-repeat
	// numbering, SR-ACKs and the control-frame hook. nil for DCF.
	Endpoint *comap.Endpoint
	Locx     *locx.Node // nil unless Options.InBandLocation
	// Metrics is the station's telemetry registry: MAC access latency and
	// airtime clock, CO-MAP agent counters and ARQ instrumentation all land
	// here. Always non-nil after Build.
	Metrics *metrics.Registry
}

// providerRef lets the CO-MAP agent's location provider be swapped after
// construction (the in-band exchange node needs the MAC, which needs the
// agent). The swap happens inside Build, before the engine runs, so nothing
// an agent caches against the old provider's change counter survives it.
type providerRef struct{ p loc.Provider }

var _ loc.Versioned = (*providerRef)(nil)

func (r *providerRef) Position(id frame.NodeID) (geom.Point, bool) {
	if r.p == nil {
		return geom.Point{}, false
	}
	return r.p.Position(id)
}

// Fix forwards fix metadata (report age, error radius) so the agent's
// location-health model sees the real pipeline state through the
// indirection; a provider without metadata reads as an always-fresh oracle.
func (r *providerRef) Fix(id frame.NodeID) (loc.Fix, bool) {
	if fp, ok := r.p.(loc.FixProvider); ok {
		return fp.Fix(id)
	}
	p, ok := r.Position(id)
	return loc.Fix{Pos: p, ReportedAt: -1}, ok
}

// Changes forwards the provider's change counter; a provider without one
// reports ok false, so nothing is cached against it.
func (r *providerRef) Changes() (uint64, bool) {
	if v, ok := r.p.(loc.Versioned); ok {
		return v.Changes()
	}
	return 0, false
}

// Network is an assembled, runnable scenario.
type Network struct {
	Eng      *sim.Engine
	Medium   *channel.Medium
	Top      topology.Topology
	Opts     Options
	Stations map[frame.NodeID]*Station
	Locs     *loc.Registry
	// MediumMetrics holds the channel-level telemetry (busy/idle airtime,
	// collision overlaps). Always non-nil after Build.
	MediumMetrics *metrics.Registry
	// Prof is the attribution profiler (nil unless Options.Profile is set).
	Prof *prof.Profiler
	// Audit is the determinism ledger (nil unless Options.Audit is set).
	Audit *audit.Ledger

	providers map[frame.NodeID]*providerRef

	// Remote CO-MAP control-plane stack (nil unless Options.ComapRemote).
	MapService   *mapsvc.Service
	MapClient    *mapsvc.Client
	mapTransport *mapsvc.SimTransport
	// SLO tracks per-endpoint control-plane latency/error objectives in
	// virtual time (nil unless Options.ComapRemote).
	SLO *slo.Tracker

	// Fault-injection state (nil/empty without Options.Faults/RPCFaults).
	injector *faults.Injector
	departed map[frame.NodeID]bool

	// Goodput slicing (see StartSlicing) and engine self-profiling.
	sampler     *metrics.Sampler
	sliceSeries map[topology.Flow]*metrics.Series

	// Run-state tracking for the live observability plane (progress.go).
	// runMu guards runState, runStart and wall so Progress can be read from
	// scrape goroutines while the run is in flight.
	runMu    sync.Mutex
	runState string
	runStart time.Time
	wall     time.Duration
}

// Build assembles the network for the given topology and options.
func Build(top topology.Topology, opts Options) (*Network, error) {
	if err := top.Validate(); err != nil {
		return nil, err
	}
	if opts.Protocol != ProtocolDCF && opts.Protocol != ProtocolComap {
		return nil, fmt.Errorf("netsim: invalid protocol %d", opts.Protocol)
	}
	if opts.Duration <= 0 {
		return nil, fmt.Errorf("netsim: non-positive duration")
	}
	if opts.Faults != nil {
		byID := make(map[frame.NodeID]bool, len(top.Nodes))
		for _, node := range top.Nodes {
			byID[node.ID] = true
		}
		for _, p := range opts.Faults.Procs {
			if p.HasNode && !byID[frame.NodeID(p.Node)] {
				return nil, fmt.Errorf("netsim: fault %s targets unknown node %d", p.Kind, p.Node)
			}
		}
		if opts.Faults.HasRPC() {
			return nil, fmt.Errorf("netsim: rpc fault kinds belong in RPCFaults, not Faults")
		}
	}
	if opts.RPCFaults != nil {
		if opts.RPCFaults.HasNonRPC() {
			return nil, fmt.Errorf("netsim: RPCFaults accepts only rpc fault kinds (rpcloss, rpcdelay, rpcpartition, rpcrestart)")
		}
		if !opts.ComapRemote {
			return nil, fmt.Errorf("netsim: RPCFaults requires ComapRemote (there is no control plane to fault)")
		}
	}
	if opts.ComapRemote {
		if opts.Protocol != ProtocolComap {
			return nil, fmt.Errorf("netsim: ComapRemote requires ProtocolComap")
		}
		if opts.InBandLocation {
			return nil, fmt.Errorf("netsim: ComapRemote is incompatible with InBandLocation (the control plane mirrors the oracle registry)")
		}
	}

	if opts.Header == 0 {
		opts.Header = HeaderEmbedded
	}

	gated := healthGated(opts)

	eng := sim.New(opts.Seed)
	var ledger *audit.Ledger
	if opts.Audit != nil {
		// RNG accounting must be armed before the first stream is created
		// (the location registry's "loc" stream, below, is the first), so every
		// stream's cursor lands in the deep digests.
		eng.EnableRNGAccounting()
		ledger = audit.NewLedger(opts.Audit.Config, ManifestFor(opts.Audit.Scenario, top, opts))
	}
	var profiler *prof.Profiler
	if opts.Profile != nil {
		profiler = prof.New(*opts.Profile)
	}
	// Only non-nil observers join the tee: a typed nil stored in the
	// Observer interface would not read as nil.
	var observers []sim.Observer
	if profiler != nil {
		observers = append(observers, profiler)
	}
	if ledger != nil {
		observers = append(observers, ledger)
	}
	eng.SetObserver(sim.TeeObservers(observers...))
	medium := channel.NewMedium(eng, opts.Prop, opts.PHY.NoiseFloorDBm)
	if top.World != nil {
		medium.SetGrid(top.World)
	}
	if opts.AudibilityMarginDB != 0 {
		medium.AudibilityMarginDB = opts.AudibilityMarginDB
	}
	if opts.Protocol == ProtocolComap && opts.Header == HeaderEmbedded {
		p := opts.PHY
		medium.HeaderIndicationAt = func(r phy.Rate) time.Duration {
			// PLCP preamble + MAC header + the extra 4-byte header FCS.
			return p.PreambleHeader + p.PayloadAirtime(r, phy.MACHeaderBytes+4)
		}
	}
	n := &Network{
		Eng:           eng,
		Medium:        medium,
		Top:           top,
		Opts:          opts,
		Stations:      make(map[frame.NodeID]*Station, len(top.Nodes)),
		MediumMetrics: metrics.NewRegistry(),
		Prof:          profiler,
		providers:     make(map[frame.NodeID]*providerRef, len(top.Nodes)),
	}
	medium.SetMetrics(n.MediumMetrics)

	// Location service: every node reports its position once at start-up;
	// the update threshold follows the paper's rule (half the tolerable
	// inaccuracy, with a 1 m floor).
	threshold := opts.PositionErrorMeters / 2
	if threshold < 1 {
		threshold = 1
	}
	n.Locs = loc.NewRegistry(eng.RNG("loc"), opts.PositionErrorMeters, threshold)
	n.Locs.SetClock(eng.Now)
	n.Locs.SetScheduler(func(d time.Duration, fn func()) {
		eng.AfterTagged(d, sim.TagLocx, sim.NoOwner, fn)
	})

	// Remote CO-MAP control plane: service, deterministic transport and the
	// shared client are assembled before the stations register, so the
	// registry's commit hooks stream every fix — including the initial
	// positions — into the service's WAL.
	if opts.ComapRemote {
		judge := comap.Judge{Model: opts.ComapModel, Rates: opts.PHY.Rates}
		if gated {
			judge.Now = eng.Now
		}
		svc := mapsvc.NewService(mapsvc.ServiceConfig{
			Judge: judge,
			Store: mapsvc.NewMemStore(),
			Now:   eng.Now,
		})
		n.mapTransport = mapsvc.NewSimTransport(eng, svc)
		ccfg := mapsvc.ClientConfig{
			Now: eng.Now,
			After: func(d time.Duration, fn func()) func() {
				h := eng.AfterTagged(d, sim.TagFaults, sim.NoOwner, fn)
				return func() { eng.Cancel(h) }
			},
		}
		if opts.RPCFaults != nil {
			// The backoff-jitter stream exists only on fault-enabled runs, so
			// a zero-fault remote run adds no stream to the audit digests.
			ccfg.Jitter = eng.RNG("mapsvc.client")
		}
		client := mapsvc.NewClient(n.mapTransport, ccfg)
		client.SetJudge(judge)
		client.SetFixes(func(id frame.NodeID) (loc.Fix, bool) { return n.Locs.Fix(id) })
		client.SetTrace(trace.NewEmitter(eng, frame.Broadcast, opts.Trace))
		// Causal run fingerprint for the X-Comap-Run header and stitched
		// spans: options digest + seed, matching the audit manifest.
		client.SetRun(fmt.Sprintf("%016x-%d", optionsFingerprint(opts), opts.Seed))
		// The SLO tracker and server-side event stream are pure observers:
		// they draw no RNG and schedule no events, so a zero-fault traced
		// run stays bit-identical to an untraced one.
		n.SLO = slo.NewTracker(eng.Now, slo.DefaultObjectives()...)
		client.SetSLO(n.SLO)
		if em := trace.NewEmitter(eng, frame.Broadcast, opts.Trace); em != nil {
			svc.SetEvents(em.Emit)
		}
		client.SetResync(func() []mapsvc.IngestRecord {
			// Full-registry dump in topology (ID) order: the deterministic
			// re-seed after a detected service restart.
			recs := make([]mapsvc.IngestRecord, 0, len(top.Nodes))
			for _, node := range top.Nodes {
				if fix, ok := n.Locs.Fix(node.ID); ok {
					recs = append(recs, mapsvc.IngestRecord{Op: mapsvc.RecReport, Node: node.ID, Fix: fix})
				}
			}
			return recs
		})
		client.AdoptEpoch(svc.Epoch())
		n.Locs.SetOnCommit(client.IngestFix)
		n.Locs.SetOnDeregister(client.IngestDeregister)
		n.MapService = svc
		n.MapClient = client
	}

	for _, node := range top.Nodes {
		n.Locs.Register(node.ID, node.Pos)
	}
	if gated {
		// Keepalive re-reports bound every fix's age while the pipeline is
		// healthy, so the health gate only trips during genuine loss, delay
		// or outage windows.
		n.Locs.StartHeartbeat(locHeartbeatInterval)
	}

	senders := top.Senders()

	for _, node := range top.Nodes {
		node := node
		tr := medium.AddNode(node.ID, node.Pos, opts.TxPowerDBm, nil)
		cfg := mac.Config{
			PHY:               opts.PHY,
			CCAThresholdDBm:   opts.CCAThresholdDBm,
			FixedCW:           opts.FixedCW,
			RTSThresholdBytes: opts.RTSThresholdBytes,
		}
		if opts.RateAdaptation {
			minstrel := rate.NewMinstrel(opts.PHY.Rates,
				eng.RNG(fmt.Sprintf("minstrel.%d", node.ID)))
			minstrel.SetFrameTime(frameTimeEstimator(opts))
			cfg.Rates = minstrel
		}
		st := &Station{Node: node, Metrics: metrics.NewRegistry()}
		cfg.Metrics = st.Metrics
		cfg.Trace = opts.Trace
		if opts.Protocol == ProtocolComap {
			provider := &providerRef{p: n.Locs}
			n.providers[node.ID] = provider
			agent := comap.NewAgent(node.ID, opts.ComapModel, provider)
			agent.SetRates(opts.PHY.Rates)
			if gated {
				agent.SetHealth(eng.Now)
			}
			agent.SetMetrics(st.Metrics)
			agent.SetTrace(trace.NewEmitter(eng, node.ID, opts.Trace))
			if n.MapClient != nil {
				agent.SetRemote(n.MapClient)
			}
			cfg.SendDiscoveryHeader = opts.Header == HeaderFrame
			cfg.NoRetransmit = true
			cfg.Concurrency = agent
			cfg.RateCap = agent
			st.Agent = agent
		}
		m := mac.New(eng, tr, cfg)
		tr.SetListener(m)
		st.MAC = m
		if opts.Protocol == ProtocolComap {
			st.Endpoint = comap.NewEndpoint(eng, m)
			st.Endpoint.SetMetrics(st.Metrics)
			st.Peer = st.Endpoint.Peer
		} else {
			st.Peer = traffic.NewPeer(eng, m)
		}
		n.Stations[node.ID] = st
	}

	// Persistent concurrency (CO-MAP testbed mode): each station observes
	// the links announced by discovery headers and bypasses carrier sense
	// while every active foreign link is coexistence-validated for all of
	// its own destinations.
	if opts.Protocol == ProtocolComap {
		dstsBySrc := make(map[frame.NodeID][]frame.NodeID)
		for _, f := range top.Flows {
			dstsBySrc[f.Src] = append(dstsBySrc[f.Src], f.Dst)
		}
		for _, node := range top.Nodes {
			st := n.Stations[node.ID]
			dsts := dstsBySrc[node.ID]
			st.Endpoint.OnControl(func(f frame.Frame, _ float64) {
				if f.Kind == frame.LocationBeacon && st.Locx != nil {
					if st.Locx.OnBeacon(f) {
						st.Agent.OnPositionsChanged()
					}
					return
				}
				if f.Kind != frame.ComapHeader || f.Src == st.Node.ID {
					return
				}
				st.Agent.ObserveLink(f.Src, f.Dst, eng.Now())
				if len(dsts) == 0 || opts.DisablePersistentConcurrency {
					return
				}
				ok := true
				for _, d := range dsts {
					if !st.Agent.PersistentConcurrencyOK(d, eng.Now()) {
						ok = false
						break
					}
				}
				st.MAC.SetPersistentConcurrent(ok)
			})
		}
	}

	// In-band location exchange: clients beacon their (noisy) position to
	// their AP; APs re-broadcast. Agents then consult the learned tables.
	if opts.Protocol == ProtocolComap && opts.InBandLocation {
		apOf := make(map[frame.NodeID]frame.NodeID)
		for _, f := range top.Flows {
			if dst, ok := n.Stations[f.Dst]; ok && dst.Node.IsAP && !n.Stations[f.Src].Node.IsAP {
				apOf[f.Src] = f.Dst
			}
		}
		for _, node := range top.Nodes {
			id := node.ID
			st := n.Stations[id]
			measure := func() (geom.Point, bool) { return n.Locs.Position(id) }
			if st.Node.IsAP {
				st.Locx = locx.NewAP(eng, st.MAC, measure, opts.PositionErrorMeters)
			} else {
				ap, ok := apOf[id]
				if !ok {
					ap = nearestAP(top, st.Node)
				}
				st.Locx = locx.NewClient(eng, st.MAC, ap, measure, opts.PositionErrorMeters)
			}
			n.providers[id].p = st.Locx
			st.Locx.Start()
		}
	}

	// Frame-lifecycle tracing: wrap every transceiver's listener chain with a
	// Tracer and observe channel transmit starts. Attached after all other
	// listeners so protocol handlers run unchanged (the tracer records, then
	// forwards), keeping traced runs bit-identical to untraced ones.
	if opts.Trace != nil {
		trace.InstrumentMedium(eng, medium, opts.Trace, opts.TraceEnergy)
	}

	// Wire traffic flows.
	for _, f := range top.Flows {
		f := f
		src := n.Stations[f.Src]
		src.Peer.Start(f.Dst, n.payloadFunc(src, f.Dst, senders), opts.CBRBitsPerSec)
	}

	// Fault injection: schedule the spec's processes against the assembled
	// subsystems. The injector draws only from its own named streams, so a
	// fault-free spec never perturbs the run. Location/channel/churn
	// processes (Faults) and control-plane RPC processes (RPCFaults) merge
	// into one injector, preserving each process's stream index.
	if merged := faults.Merge(opts.Faults, opts.RPCFaults); merged != nil {
		n.departed = make(map[frame.NodeID]bool)
		var beacons []faults.BeaconLossSink
		ids := make([]frame.NodeID, 0, len(top.Nodes))
		for _, node := range top.Nodes {
			ids = append(ids, node.ID)
			if st := n.Stations[node.ID]; st.Locx != nil {
				beacons = append(beacons, st.Locx)
			}
		}
		targets := faults.Targets{
			Loc:     n.Locs,
			Medium:  medium,
			Churn:   n,
			Beacons: beacons,
			Nodes:   ids,
		}
		if n.mapTransport != nil {
			targets.RPC = n.mapTransport
		}
		n.injector = faults.NewInjector(eng, merged, targets)
		n.injector.SetMetrics(n.MediumMetrics)
		n.injector.SetTrace(trace.NewEmitter(eng, frame.Broadcast, opts.Trace))
		if profiler != nil && profiler.Flight() != nil {
			// Dump the flight ring on fault-window entry so the events
			// leading into each degradation are preserved. Capped so a
			// tight recurring window can't flood the profiles directory.
			dumps := 0
			n.injector.OnWindowOpen(func(kind faults.Kind) {
				if dumps >= maxFaultFlightDumps {
					return
				}
				dumps++
				_, _ = profiler.DumpFlight("fault-" + string(kind))
			})
		}
		n.injector.Start()
	}

	// Determinism ledger: register the deep protocol-state digest sources
	// in a fixed, sorted order and (tests only) the nondeterminism
	// injection tick. Registration happens last so every subsystem the
	// digests read exists.
	if ledger != nil {
		n.Audit = ledger
		n.registerAuditSources(ledger)
		if opts.Audit.InjectNondet {
			n.startNondetInjection()
		}
	}
	return n, nil
}

// maxFaultFlightDumps bounds the number of fault-window flight dumps per run.
const maxFaultFlightDumps = 8

// healthGated reports whether CO-MAP's location-health gate is on: whenever
// faults are injected (degraded input gets degraded-mode consumption).
func healthGated(opts Options) bool { return opts.Faults != nil || opts.RPCFaults != nil }

// locHeartbeatInterval is the location service's keepalive period when the
// health model is active (see loc.Registry.StartHeartbeat).
const locHeartbeatInterval = time.Second

// frameTimeEstimator returns the per-rate full frame-exchange time used by
// Minstrel's throughput metric: contention overhead + (optional discovery
// header) + data airtime at the reference payload + SIFS + ACK.
func frameTimeEstimator(opts Options) func(r phy.Rate) time.Duration {
	p := opts.PHY
	overhead := p.DIFS() + p.SlotTime*time.Duration(maxInt(opts.FixedCW, 2)/2) +
		p.SIFS + p.ACKAirtime()
	if opts.Protocol == ProtocolComap && opts.Header == HeaderFrame {
		overhead += p.FrameAirtime(p.BasicRate, phy.ComapHeaderBytes)
	}
	payload := opts.PayloadBytes
	if payload <= 0 {
		payload = 1000
	}
	return func(r phy.Rate) time.Duration {
		return overhead + p.DataFrameAirtime(r, payload)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// payloadFunc returns the per-frame payload chooser for a flow: fixed for
// DCF, or CO-MAP's hidden-terminal-aware adaptation when a table is
// configured. The adaptation also retunes the station's contention window.
func (n *Network) payloadFunc(src *Station, dst frame.NodeID, senders []frame.NodeID) func() int {
	opts := n.Opts
	if src.Agent == nil || opts.AdaptTable == nil {
		return func() int { return opts.PayloadBytes }
	}
	candidates := make([]frame.NodeID, 0, len(senders))
	for _, s := range senders {
		if s != src.Node.ID {
			candidates = append(candidates, s)
		}
	}
	// Adaptation decisions are traced only when the chosen setting changes,
	// so saturated flows don't flood the event stream with identical rows.
	lastH, lastC, lastW, lastPayload := -1, -1, -1, -1
	return func() int {
		// The paper's mechanism is a hidden-terminal response ("dynamic
		// adaptation of packet size according to the number of potential
		// HTs"): with none detected, the standard settings stay in place.
		h, c := src.Agent.CountEnvironment(dst, candidates)
		w, payload := opts.FixedCW, opts.PayloadBytes
		if h > 0 {
			setting := opts.AdaptTable.Lookup(h, c)
			w, payload = setting.W, setting.PayloadBytes
		}
		src.MAC.SetFixedCW(w)
		if h != lastH || c != lastC || w != lastW || payload != lastPayload {
			lastH, lastC, lastW, lastPayload = h, c, w, payload
			src.Agent.TraceAdaptation(dst, h, c, w, payload)
		}
		return payload
	}
}

// FlowResult is the measured goodput of one flow.
type FlowResult struct {
	Flow       topology.Flow
	GoodputBps float64
}

// Results of one scenario run.
type Results struct {
	Duration time.Duration
	Flows    []FlowResult
}

// Goodput returns the goodput of the given flow in bits per second (0 if
// the flow was not part of the run).
func (r *Results) Goodput(f topology.Flow) float64 {
	for _, fr := range r.Flows {
		if fr.Flow == f {
			return fr.GoodputBps
		}
	}
	return 0
}

// Total returns the aggregate goodput across flows.
func (r *Results) Total() float64 {
	t := 0.0
	for _, fr := range r.Flows {
		t += fr.GoodputBps
	}
	return t
}

// MeanPerFlow returns the mean per-flow goodput.
func (r *Results) MeanPerFlow() float64 {
	if len(r.Flows) == 0 {
		return 0
	}
	return r.Total() / float64(len(r.Flows))
}

// StartSlicing schedules a goodput sampler that records each flow's
// cumulative delivered bytes every interval, so reports can expose goodput
// over time slices. Call after Build and before Run; a non-positive interval
// is a no-op. The sampler only reads meters — it cannot perturb the run.
func (n *Network) StartSlicing(interval time.Duration) {
	if interval <= 0 || n.sampler != nil {
		return
	}
	n.sampler = metrics.NewSampler(n.Eng, interval)
	n.sliceSeries = make(map[topology.Flow]*metrics.Series, len(n.Top.Flows))
	for _, f := range n.Top.Flows {
		meter := n.Stations[f.Dst].Peer.DeliveredFrom(f.Src)
		n.sliceSeries[f] = n.sampler.Track(func() float64 { return float64(meter.Bytes()) })
	}
	n.sampler.Start()
}

// SliceInterval returns the goodput sampling interval (0 when slicing is
// off).
func (n *Network) SliceInterval() time.Duration {
	if n.sampler == nil {
		return 0
	}
	return n.sampler.Interval()
}

// Run executes the scenario for Opts.Duration and returns per-flow goodput.
// When the flight recorder is attached, a panic inside the event loop dumps
// the ring to the profile directory before propagating.
func (n *Network) Run() *Results {
	n.markRunning()
	start := time.Now()
	if n.Prof != nil && n.Prof.Flight() != nil {
		defer func() {
			if r := recover(); r != nil {
				_, _ = n.Prof.DumpFlight("panic")
				panic(r)
			}
		}()
	}
	n.Eng.RunUntil(n.Opts.Duration)
	n.markDone(time.Since(start))
	if n.Audit != nil {
		n.Audit.Finish(n.Opts.Duration)
	}
	if n.Opts.Trace != nil {
		n.Opts.Trace.Record(trace.Event{
			AtMicros: int64(n.Opts.Duration / time.Microsecond),
			Kind:     trace.KindRunEnd,
		})
	}
	res := &Results{Duration: n.Opts.Duration}
	for _, f := range n.Top.Flows {
		meter := n.Stations[f.Dst].Peer.DeliveredFrom(f.Src)
		res.Flows = append(res.Flows, FlowResult{
			Flow:       f,
			GoodputBps: meter.BitsPerSecond(n.Opts.Duration),
		})
	}
	return res
}

// RunScenario is the one-call convenience: build and run.
func RunScenario(top topology.Topology, opts Options) (*Results, error) {
	n, err := Build(top, opts)
	if err != nil {
		return nil, err
	}
	return n.Run(), nil
}

// nearestAP returns the closest AP to the given node (fallback association
// for clients without an uplink flow).
func nearestAP(top topology.Topology, node topology.Node) frame.NodeID {
	var best frame.NodeID
	bestD := math.Inf(1)
	for _, cand := range top.Nodes {
		if !cand.IsAP {
			continue
		}
		if d := node.Pos.DistanceTo(cand.Pos); d < bestD {
			best, bestD = cand.ID, d
		}
	}
	return best
}
