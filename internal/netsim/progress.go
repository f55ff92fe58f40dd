package netsim

import (
	"time"

	"repro/internal/audit"
	"repro/internal/comap"
	"repro/internal/faults"
	"repro/internal/frame"
	"repro/internal/mapsvc"
)

// Run states reported by Progress.
const (
	RunStateBuilt   = "built"
	RunStateRunning = "running"
	RunStateDone    = "done"
)

// Progress is a race-safe snapshot of a run in flight, served live by the
// observability plane (/runs). Everything in it is derived from atomics,
// locked series and wall clocks — reading it never touches mutable protocol
// state, so an observed run stays bit-identical to an unobserved one.
type Progress struct {
	Topology    string  `json:"topology"`
	Protocol    string  `json:"protocol"`
	Seed        int64   `json:"seed"`
	State       string  `json:"state"`
	SimSec      float64 `json:"sim_sec"`
	DurationSec float64 `json:"duration_sec"`
	WallSec     float64 `json:"wall_sec"`
	// Speedup is sim-time over wall-time so far (0 until the run starts).
	Speedup      float64 `json:"speedup"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// PendingEvents / EventPool mirror the engine's queue length and recycled
	// event-pool size (published every ~1k dispatches; see sim.LivePending).
	PendingEvents int `json:"pending_events"`
	EventPool     int `json:"event_pool"`
	// Flows carries per-flow sliced goodput when slicing is enabled
	// (StartSlicing); otherwise the list only names the flows.
	Flows []FlowProgress `json:"flows,omitempty"`
}

// FlowProgress is one flow's live goodput view.
type FlowProgress struct {
	Src frame.NodeID `json:"src"`
	Dst frame.NodeID `json:"dst"`
	// Slices is the per-slice goodput observed so far (requires slicing).
	Slices []GoodputSlice `json:"slices,omitempty"`
}

// markRunning records the wall-clock start of the run.
func (n *Network) markRunning() {
	n.runMu.Lock()
	n.runState = RunStateRunning
	n.runStart = time.Now()
	n.runMu.Unlock()
}

// markDone records the wall-clock duration of the run.
func (n *Network) markDone(wall time.Duration) {
	n.runMu.Lock()
	n.runState = RunStateDone
	n.wall = wall
	n.runMu.Unlock()
}

// runClock returns the current state, the wall time elapsed so far (final
// wall time once done) in a race-safe way.
func (n *Network) runClock() (state string, wall time.Duration) {
	n.runMu.Lock()
	defer n.runMu.Unlock()
	switch n.runState {
	case RunStateRunning:
		return n.runState, time.Since(n.runStart)
	case RunStateDone:
		return n.runState, n.wall
	default:
		return RunStateBuilt, 0
	}
}

// Progress snapshots the run's live state. Safe to call from any goroutine
// at any time — before, during and after Run.
func (n *Network) Progress() Progress {
	state, wall := n.runClock()
	p := Progress{
		Topology:    n.Top.Name,
		Protocol:    n.Opts.Protocol.String(),
		Seed:        n.Opts.Seed,
		State:       state,
		SimSec:      n.Eng.Now().Seconds(),
		DurationSec: n.Opts.Duration.Seconds(),
		WallSec:     wall.Seconds(),
		Events:      n.Eng.EventsFired(),

		PendingEvents: n.Eng.LivePending(),
		EventPool:     n.Eng.LivePoolSize(),
	}
	if wall > 0 {
		p.Speedup = p.SimSec / wall.Seconds()
		p.EventsPerSec = float64(p.Events) / wall.Seconds()
	}
	// One allocation per snapshot: per-step samplers call this mid-run.
	p.Flows = make([]FlowProgress, 0, len(n.Top.Flows))
	for _, f := range n.Top.Flows {
		fp := FlowProgress{Src: f.Src, Dst: f.Dst}
		if s := n.sliceSeries[f]; s != nil {
			fp.Slices = slicesFromSeries(s.Samples())
		}
		p.Flows = append(p.Flows, fp)
	}
	return p
}

// slicesFromSeries converts a cumulative byte series into per-slice
// goodput deltas.
func slicesFromSeries(at []time.Duration, values []float64) []GoodputSlice {
	var out []GoodputSlice
	prevT := time.Duration(0)
	prevB := int64(0)
	for i := range at {
		t, b := at[i], int64(values[i])
		if t <= prevT {
			continue
		}
		out = append(out, GoodputSlice{
			StartSec:   prevT.Seconds(),
			EndSec:     t.Seconds(),
			Bytes:      b - prevB,
			GoodputBps: float64(b-prevB) * 8 / (t - prevT).Seconds(),
		})
		prevT, prevB = t, b
	}
	return out
}

// HealthStatus is a race-safe summary of the run's degraded-mode machinery
// for the live health endpoint: what the fault injector is doing and how
// often CO-MAP's location-health policy fell back to plain DCF behaviour.
type HealthStatus struct {
	// Status is "ok" while nothing is degraded, "degraded" while a fault
	// window is open or health fallbacks have fired.
	Status string  `json:"status"`
	SimSec float64 `json:"sim_sec"`
	// PendingEvents / EventPool mirror the engine's live queue and pool
	// gauges: a pending count that climbs without bound, or a pool that
	// grows while pending stays flat, both flag engine-level trouble.
	PendingEvents int `json:"pending_events"`
	EventPool     int `json:"event_pool"`
	// Faults reports injector state; absent on fault-free runs.
	Faults *faults.Status `json:"faults,omitempty"`
	// HealthPolicy echoes the active CO-MAP location-health policy; absent
	// when health gating is disabled.
	HealthPolicy *HealthPolicyStatus `json:"health_policy,omitempty"`
	// FallbackDCF / FallbackAdapt sum the stations' health-fallback
	// counters (see Summary).
	FallbackDCF   int64 `json:"fallback_dcf"`
	FallbackAdapt int64 `json:"fallback_adapt"`
	// ControlPlane reports the remote CO-MAP stack (absent unless
	// Options.ComapRemote): client breaker/rung/budget state and service
	// ingest/WAL/recovery state. A rung below fresh or a down service
	// degrades the run's health.
	ControlPlane *ControlPlaneStatus `json:"control_plane,omitempty"`
	// Audit carries the determinism ledger's head digest when auditing is
	// on; a ledger write error degrades the run's health.
	Audit *audit.Head `json:"audit,omitempty"`
}

// ControlPlaneStatus pairs the control-plane client and service snapshots
// for the live health endpoint.
type ControlPlaneStatus struct {
	Client  mapsvc.ClientStatus  `json:"client"`
	Service mapsvc.ServiceStatus `json:"service"`
}

// HealthPolicyStatus is the JSON rendering of CO-MAP's location-health gate.
type HealthPolicyStatus struct {
	MaxFixAgeSec            float64 `json:"max_fix_age_sec"`
	StalenessMarginDBPerSec float64 `json:"staleness_margin_db_per_sec"`
	UseErrorRadius          bool    `json:"use_error_radius"`
}

// HealthStatus snapshots the degraded-mode state. Safe to call from any
// goroutine during a run: it reads only atomic counters and injector
// atomics.
func (n *Network) HealthStatus() HealthStatus {
	h := HealthStatus{
		Status:        "ok",
		SimSec:        n.Eng.Now().Seconds(),
		PendingEvents: n.Eng.LivePending(),
		EventPool:     n.Eng.LivePoolSize(),
	}
	if n.injector != nil {
		st := n.injector.Status()
		h.Faults = &st
		if st.ActiveWindows > 0 {
			h.Status = "degraded"
		}
	}
	if healthGated(n.Opts) {
		h.HealthPolicy = &HealthPolicyStatus{
			MaxFixAgeSec:            comap.MaxFixAge.Seconds(),
			StalenessMarginDBPerSec: comap.StalenessMarginDBPerSec,
			UseErrorRadius:          true, // a gated Judge always evaluates worst-case geometry
		}
	}
	// Station registries hand out atomic counters; summing them live is
	// race-safe and never perturbs the run.
	for _, node := range n.Top.Nodes {
		st := n.Stations[node.ID]
		h.FallbackDCF += st.Metrics.Counter("comap.fallback.dcf").Value()
		h.FallbackAdapt += st.Metrics.Counter("comap.fallback.adapt").Value()
	}
	if h.FallbackDCF > 0 || h.FallbackAdapt > 0 {
		h.Status = "degraded"
	}
	if n.MapClient != nil {
		cp := &ControlPlaneStatus{
			Client:  n.MapClient.Status(),
			Service: n.MapService.Status(),
		}
		h.ControlPlane = cp
		if cp.Client.Rung != mapsvc.RungFresh.String() || cp.Service.Down {
			h.Status = "degraded"
		}
	}
	if n.Audit != nil {
		head := n.Audit.Head()
		h.Audit = &head
		if head.Err != "" {
			h.Status = "degraded"
		}
	}
	return h
}
