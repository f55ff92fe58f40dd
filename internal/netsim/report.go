package netsim

import (
	"encoding/json"
	"io"
	"sort"

	"repro/internal/frame"
	"repro/internal/mapsvc"
	"repro/internal/metrics"
	"repro/internal/slo"
	"repro/internal/topology"
)

// Report is the machine-readable record of one scenario run: per-flow
// goodput (optionally sliced over time), per-station protocol counters,
// MAC access-latency percentiles, airtime breakdowns and engine
// self-profiling. It is what `comap-sim -report` emits and what experiment
// artifacts embed.
type Report struct {
	Topology    string  `json:"topology"`
	Protocol    string  `json:"protocol"`
	Seed        int64   `json:"seed"`
	DurationSec float64 `json:"duration_sec"`
	// SliceSec is the goodput sampling interval (absent when slicing off).
	SliceSec float64          `json:"slice_sec,omitempty"`
	Engine   EngineReport     `json:"engine"`
	Summary  Summary          `json:"summary"`
	Flows    []FlowReport     `json:"flows"`
	Stations []StationReport  `json:"stations"`
	Medium   metrics.Snapshot `json:"medium"`
	// Faults is the degraded-mode block, present only on fault-injected runs.
	Faults *FaultsReport `json:"faults,omitempty"`
	// ControlPlane is the remote CO-MAP control-plane block, present only on
	// RPC-fault-injected runs (a zero-RPC-fault remote run must stay
	// byte-identical to its in-process golden).
	ControlPlane *ControlPlaneReport `json:"control_plane,omitempty"`
	// ControlPlaneSLO is the per-endpoint latency/error-budget block for the
	// control-plane RPCs, gated exactly like ControlPlane.
	ControlPlaneSLO *slo.Status `json:"control_plane_slo,omitempty"`
}

// ControlPlaneReport records how the mapsvc control plane and its client
// behaved under the injected RPC fault processes: which degradation-ladder
// rungs served decisions, what the retry/breaker machinery did, and how the
// service's snapshot+WAL recovery went. Derived entirely from the sim clock
// and seeded streams, so identical (seed, spec) pairs produce identical
// blocks.
type ControlPlaneReport struct {
	// Spec is the RPC fault specification text, for reproduction.
	Spec string `json:"spec"`
	// Client snapshots the control-plane client: breaker state, ladder rung,
	// per-rung decision counts, retries, timeouts, resyncs.
	Client mapsvc.ClientStatus `json:"client"`
	// Service snapshots the verdict service: ingest/shed, WAL and snapshot
	// activity, crash recoveries, epoch.
	Service mapsvc.ServiceStatus `json:"service"`
}

// FaultsReport records what the fault-injection layer did to the run and how
// the protocol degraded: every value is derived from the sim clock and
// seeded streams, so identical (seed, spec) pairs produce identical blocks.
type FaultsReport struct {
	// Spec is the fault specification text, for reproduction.
	Spec string `json:"spec"`
	// Injected counts fault activations (window openings and armed
	// whole-run processes).
	Injected int `json:"injected"`
	// DroppedReports and DelayedReports count location reports consumed or
	// deferred by the pipeline faults.
	DroppedReports int `json:"dropped_reports"`
	DelayedReports int `json:"delayed_reports"`
	// BeaconsLost counts in-band location beacons consumed by report loss.
	BeaconsLost int `json:"beacons_lost,omitempty"`
	// FallbackDCF / FallbackAdapt are the degraded-mode decision counters
	// (see Summary).
	FallbackDCF   int64 `json:"fallback_dcf"`
	FallbackAdapt int64 `json:"fallback_adapt"`
}

// EngineReport is the simulator's self-profiling block.
type EngineReport struct {
	EventsFired  uint64  `json:"events_fired"`
	PendingAtEnd int     `json:"pending_at_end"`
	WallSec      float64 `json:"wall_sec"`
	// EventsPerSec is the wall-clock event throughput of the run (0 when the
	// wall time is unmeasurably small).
	EventsPerSec float64 `json:"events_per_sec"`
}

// FlowReport is one flow's goodput, with its time slices when slicing was
// enabled.
type FlowReport struct {
	Src        frame.NodeID `json:"src"`
	Dst        frame.NodeID `json:"dst"`
	GoodputBps float64      `json:"goodput_bps"`
	// LatencyMs summarises the flow's MAC access latency (enqueue→ACK at the
	// sender, frames towards this destination only), including the p999 and
	// worst-case tail; absent when no frame completed.
	LatencyMs *LatencyMs     `json:"latency_ms,omitempty"`
	Slices    []GoodputSlice `json:"slices,omitempty"`
}

// GoodputSlice is the goodput of one flow over one time slice.
type GoodputSlice struct {
	StartSec   float64 `json:"start_sec"`
	EndSec     float64 `json:"end_sec"`
	Bytes      int64   `json:"bytes"`
	GoodputBps float64 `json:"goodput_bps"`
}

// StationReport is one station's telemetry snapshot.
type StationReport struct {
	ID   frame.NodeID `json:"id"`
	IsAP bool         `json:"is_ap,omitempty"`
	// Counters is the MAC's protocol counter set (tx.data, ack.timeout, …).
	Counters map[string]int64 `json:"counters,omitempty"`
	// LatencyMs summarises the MAC access latency (enqueue→ACK) of frames
	// that completed successfully; absent when none did.
	LatencyMs *LatencyMs `json:"latency_ms,omitempty"`
	// AirtimeSec partitions the run duration into the MAC's airtime states
	// (tx/wait/busy/nav/defer/backoff/idle); the values sum to the run
	// duration by construction.
	AirtimeSec map[string]float64 `json:"airtime_sec,omitempty"`
	// Metrics is the full registry snapshot (CO-MAP agent counters, ARQ
	// instrumentation, timing histograms, …).
	Metrics metrics.Snapshot `json:"metrics"`
}

// LatencyMs is a latency distribution summary in milliseconds.
type LatencyMs struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

// latencyFromTiming converts a timing snapshot into the report's latency
// summary (nil when empty).
func latencyFromTiming(t metrics.TimingSnapshot) *LatencyMs {
	if t.N == 0 {
		return nil
	}
	return &LatencyMs{
		N: t.N, Mean: t.MeanMs,
		P50: t.P50Ms, P90: t.P90Ms, P99: t.P99Ms, P999: t.P999Ms, Max: t.MaxMs,
	}
}

// Report assembles the run report from the network's telemetry and the
// per-flow results. Call after Run.
func (n *Network) Report(res *Results) *Report {
	r := &Report{
		Topology:    n.Top.Name,
		Protocol:    n.Opts.Protocol.String(),
		Seed:        n.Opts.Seed,
		DurationSec: n.Opts.Duration.Seconds(),
		SliceSec:    n.SliceInterval().Seconds(),
		Summary:     n.Summarize(),
		Medium:      n.MediumMetrics.Snapshot(),
	}
	_, wall := n.runClock()
	r.Engine = EngineReport{
		EventsFired:  n.Eng.EventsFired(),
		PendingAtEnd: n.Eng.Pending(),
		WallSec:      wall.Seconds(),
	}
	if wall > 0 {
		r.Engine.EventsPerSec = float64(r.Engine.EventsFired) / wall.Seconds()
	}

	// Snapshot every station registry once; flow latency tails and station
	// blocks read from the same snapshots.
	snaps := make(map[frame.NodeID]metrics.Snapshot, len(n.Stations))
	for id, st := range n.Stations {
		snaps[id] = st.Metrics.Snapshot()
	}

	for _, fr := range res.Flows {
		fl := FlowReport{Src: fr.Flow.Src, Dst: fr.Flow.Dst, GoodputBps: fr.GoodputBps}
		if t, ok := snaps[fr.Flow.Src].Timings[perDstLatencyKey(fr.Flow.Dst)]; ok {
			fl.LatencyMs = latencyFromTiming(t)
		}
		fl.Slices = n.flowSlices(fr.Flow)
		r.Flows = append(r.Flows, fl)
	}
	sort.Slice(r.Flows, func(i, j int) bool {
		if r.Flows[i].Src != r.Flows[j].Src {
			return r.Flows[i].Src < r.Flows[j].Src
		}
		return r.Flows[i].Dst < r.Flows[j].Dst
	})

	ids := make([]frame.NodeID, 0, len(n.Stations))
	for id := range n.Stations {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		st := n.Stations[id]
		snap := snaps[id]
		sr := StationReport{
			ID:       id,
			IsAP:     st.Node.IsAP,
			Counters: st.MAC.Stats().Snapshot(),
			Metrics:  snap,
		}
		if len(sr.Counters) == 0 {
			sr.Counters = nil
		}
		if lat, ok := snap.Timings["mac.access_latency"]; ok {
			sr.LatencyMs = latencyFromTiming(lat)
		}
		sr.AirtimeSec = snap.AirtimeSec["mac"]
		r.Stations = append(r.Stations, sr)
	}
	if n.injector != nil {
		fr := &FaultsReport{
			Spec:           n.Opts.Faults.String(),
			Injected:       n.injector.Injected(),
			DroppedReports: n.Locs.DroppedReports(),
			DelayedReports: n.Locs.DelayedReports(),
			FallbackDCF:    r.Summary.FallbackDCF,
			FallbackAdapt:  r.Summary.FallbackAdapt,
		}
		for _, id := range ids {
			if lx := n.Stations[id].Locx; lx != nil {
				fr.BeaconsLost += lx.BeaconsLost()
			}
		}
		r.Faults = fr
	}
	if n.Opts.RPCFaults != nil && n.MapClient != nil {
		r.ControlPlane = &ControlPlaneReport{
			Spec:    n.Opts.RPCFaults.String(),
			Client:  n.MapClient.Status(),
			Service: n.MapService.Status(),
		}
		if n.SLO != nil {
			st := n.SLO.Status()
			r.ControlPlaneSLO = &st
		}
	}
	return r
}

// perDstLatencyKey names the MAC's per-destination access-latency timing.
func perDstLatencyKey(dst frame.NodeID) string {
	return "mac.access_latency.to." + itoaU16(dst)
}

func itoaU16(v frame.NodeID) string {
	if v == 0 {
		return "0"
	}
	var b [5]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// flowSlices converts a flow's cumulative byte series into per-slice deltas,
// closing the final (possibly partial) slice against the end-of-run meter
// reading: the run may end between ticks.
func (n *Network) flowSlices(f topology.Flow) []GoodputSlice {
	s := n.sliceSeries[f]
	if s == nil {
		return nil
	}
	at, values := s.Samples()
	at = append(at, n.Opts.Duration)
	values = append(values, float64(n.Stations[f.Dst].Peer.DeliveredFrom(f.Src).Bytes()))
	return slicesFromSeries(at, values)
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
