package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"time"

	"repro/internal/bianchi"
	"repro/internal/mapsvc"
	"repro/internal/netsim"
	"repro/internal/phy"
	"repro/internal/topology"
)

// officeCBR is the Fig. 10 offered load of each of the floor's two-way flows.
const officeCBR = 3e6

// officePositionError is the Fig. 10 "CO-MAP (10)" localization error.
const officePositionError = 10

// setupTimes splits one network's set-up.
type setupTimes struct {
	Topology, Trace, Build, Schedule time.Duration
}

func (s setupTimes) total() time.Duration { return s.Topology + s.Trace + s.Build + s.Schedule }

// counts is everything a simulated run did that tracing must not change: the
// traced run's counts are compared with the untraced run's.
type counts struct {
	Events    uint64
	SimTime   time.Duration
	FlowBytes []int64
	MAC       map[string]int64
	Comap     map[string]int64
	MapHits   int
	MapMisses int
	Fixes     int
	Service   mapsvc.ServiceStatus // zero unless verdicts are remote
	Client    clientCounts
}

type clientCounts struct {
	Calls, Retries, Failures, Fresh, Decisions int64
}

// collectCounts reads a finished (or paused) run's counters through the
// public API of each layer, in topology order.
func collectCounts(n *netsim.Network) counts {
	c := counts{
		Events:  n.Eng.EventsFired(),
		SimTime: n.Eng.Now(),
		MAC:     map[string]int64{},
		Comap:   map[string]int64{},
		Fixes:   n.Locs.Updates(),
	}
	for _, f := range n.Top.Flows {
		dst := n.Stations[f.Dst]
		if dst.Endpoint != nil {
			c.FlowBytes = append(c.FlowBytes, dst.Endpoint.DeliveredFrom(f.Src).Bytes())
		} else {
			c.FlowBytes = append(c.FlowBytes, dst.Peer.DeliveredFrom(f.Src).Bytes())
		}
	}
	for _, node := range n.Top.Nodes {
		st := n.Stations[node.ID]
		for k, v := range st.MAC.Stats().Snapshot() {
			c.MAC[k] += v
		}
		for k, v := range st.Metrics.Snapshot().Counters {
			if strings.HasPrefix(k, "comap.") {
				c.Comap[k] += v
			}
		}
		if st.Agent != nil {
			c.MapHits += st.Agent.Map().Hits()
			c.MapMisses += st.Agent.Map().Misses()
		}
	}
	if n.MapService != nil {
		c.Service = n.MapService.Status()
	}
	if n.MapClient != nil {
		st := n.MapClient.Status()
		c.Client = clientCounts{Calls: st.Calls, Retries: st.Retries, Failures: st.Failures, Fresh: st.RungDecisions["fresh"]}
		for _, v := range st.RungDecisions {
			c.Client.Decisions += v
		}
	}
	return c
}

// goodputs returns each flow's goodput in bits per second.
func (c counts) goodputs() []float64 {
	out := make([]float64, len(c.FlowBytes))
	for i, b := range c.FlowBytes {
		out[i] = float64(b) * 8 / c.SimTime.Seconds()
	}
	return out
}

// checkFlows fails the run when a flow delivers more than limitBps (its
// offered CBR or the PHY rate, with slack for one frame in flight) or the
// network delivers nothing. A single flow may starve: on the Fig. 10 floors
// with 10 m position error, and on the saturated city, some links lose every
// frame to hidden terminals (netsim.starved_flow_share counts them).
func checkFlows(o *outcome, label string, n *netsim.Network, c counts, limitBps float64) bool {
	slack := 8 * float64(n.Opts.PayloadBytes) / c.SimTime.Seconds()
	total := 0.0
	for i, g := range c.goodputs() {
		if g > limitBps+slack {
			f := n.Top.Flows[i]
			o.fail("%s: flow %d->%d goodput %.0f b/s exceeds %.0f", label, f.Src, f.Dst, g, limitBps)
			return false
		}
		total += g
	}
	if total <= 0 {
		o.fail("%s: no flow delivered anything", label)
		return false
	}
	return true
}

// checkSame fails the run when two runs of the same inputs simulated
// different things.
func checkSame(o *outcome, label string, want, got counts) bool {
	if reflect.DeepEqual(want, got) {
		return true
	}
	o.fail("%s: simulated counts differ (events %d vs %d, fixes %d vs %d)", label, want.Events, got.Events, want.Fixes, got.Fixes)
	return false
}

// officeFloorSeeds derives the run's floors from the workload seed. Each
// floor seed feeds topology.LargeScale and the simulator.
func officeFloorSeeds(seed int64, floors int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, floors)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// officeOptions is the Fig. 10 "CO-MAP (10)" configuration.
func officeOptions(seed int64, dur time.Duration) netsim.Options {
	opts := netsim.NS2Options()
	opts.Protocol = netsim.ProtocolComap
	opts.CBRBitsPerSec = officeCBR
	// The Fig. 10 adaptation grid: windows capped at 255 slots for
	// CBR-limited interferers.
	base := bianchi.FromPHY(phy.NS2Table1(), phy.RateOFDM6)
	opts.AdaptTable = bianchi.NewAdaptationTable(base, 5, 8, []int{15, 31, 63, 127, 255}, nil)
	opts.ComapModel.HTImpactPRR = 0.5
	opts.PositionErrorMeters = officePositionError
	opts.Seed = seed
	opts.Duration = dur
	return opts
}

// buildOffice generates one floor and assembles its network.
func buildOffice(floorSeed int64, dur time.Duration) (*netsim.Network, setupTimes, error) {
	t0 := time.Now()
	top := topology.LargeScale(rand.New(rand.NewSource(floorSeed)))
	t1 := time.Now()
	n, err := netsim.Build(top, officeOptions(floorSeed, dur))
	t2 := time.Now()
	return n, setupTimes{Topology: t1.Sub(t0), Build: t2.Sub(t1)}, err
}

// cityOptions is the city configuration with CO-MAP verdicts served by the
// mapsvc control plane over the zero-fault in-process transport.
func cityOptions(seed int64, span time.Duration) netsim.Options {
	opts := netsim.CityOptions()
	opts.Protocol = netsim.ProtocolComap
	opts.ComapRemote = true
	opts.Seed = seed
	opts.Duration = span
	return opts
}

// buildCity generates the city and its walker/churn trace from the seed and
// assembles the network with the trace scheduled.
func buildCity(seed int64, stations int, span time.Duration) (*netsim.Network, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	top, err := topology.CityScale(topology.DefaultCityConfig(stations, seed))
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	tr := topology.SynthesizeCityTrace(top, rand.New(rand.NewSource(seed)), topology.CityTraceConfig{Duration: span})
	t2 := time.Now()
	n, err := netsim.Build(top, cityOptions(seed, span))
	if err != nil {
		return nil, st, err
	}
	t3 := time.Now()
	err = n.ScheduleLocTrace(tr)
	t4 := time.Now()
	return n, setupTimes{Topology: t1.Sub(t0), Trace: t2.Sub(t1), Build: t3.Sub(t2), Schedule: t4.Sub(t3)}, err
}

// advance runs n to sim time end in steps, calling between after each step.
func advance(n *netsim.Network, end, step time.Duration, between func()) {
	for t := n.Eng.Now(); t < end; {
		t = min(t+step, end)
		n.Eng.RunUntil(t)
		between()
	}
}

// tracedRun is one traced simulation: its tracer, counts and cost.
type tracedRun struct {
	tr          *tracer
	c           counts
	wall        time.Duration
	allocBytes  uint64
	pendingPeak int
	txStarts    int64
	collisions  int64
}

// runTraced runs n to end with the tracer attached, sampling the event
// queue through Network.Progress every step.
func runTraced(n *netsim.Network, end, step time.Duration, rt *runtimeStats, gc *gcWindow) tracedRun {
	tr := attachTracer(n)
	r := tracedRun{tr: tr}
	a0 := rt.read().AllocBytes
	t0 := time.Now()
	advance(n, end, step, func() {
		tr.dispatch.pause()
		if p := n.Progress().PendingEvents; p > r.pendingPeak {
			r.pendingPeak = p
		}
		gc.sample()
	})
	r.wall = time.Since(t0)
	r.allocBytes = rt.read().AllocBytes - a0
	r.c = collectCounts(n)
	r.txStarts = n.MediumMetrics.Counter("tx_starts").Value()
	r.collisions = n.MediumMetrics.Counter("collisions").Value()
	return r
}

// layerCounts writes the mac.*, comap.* and mapsvc.* counters of a run.
func layerCounts(values map[string]float64, c counts) {
	m := c.MAC
	values["mac.tx_data"] = float64(m["tx.data"])
	values["mac.tx_retry"] = float64(m["tx.retry"])
	values["mac.ack_timeout"] = float64(m["ack.timeout"])
	values["mac.rx_data"] = float64(m["rx.data"])
	values["mac.rx_corrupt"] = float64(m["rx.corrupt"])
	values["mac.drops"] = float64(m["drop.retry_limit"] + m["drop.queue_full"])
	values["mac.et_concurrent_tx"] = float64(m["et.concurrent_tx"])
	// Unicast data frames that were acknowledged, over all sent.
	values["mac.ack_ratio"] = ratio(float64(m["tx.data"]-m["ack.timeout"]), float64(m["tx.data"]))

	values["comap.map_hits"] = float64(c.MapHits)
	values["comap.map_misses"] = float64(c.MapMisses)
	values["comap.map_hit_ratio"] = ratio(float64(c.MapHits), float64(c.MapHits+c.MapMisses))
	values["comap.validate_allowed"] = float64(c.Comap["comap.validate.allowed"])
	values["comap.validate_denied"] = float64(c.Comap["comap.validate.denied"])
	values["comap.fallback_dcf"] = float64(c.Comap["comap.fallback.dcf"])
}

// netsimLayer writes the netsim.* and sim.* rates of a run whose untraced
// wall time was wall.
func netsimLayer(values map[string]float64, c counts, wall time.Duration) {
	total, starved := 0.0, 0
	for _, g := range c.goodputs() {
		total += g
		if g <= 0 {
			starved++
		}
	}
	values["netsim.goodput_mbps"] = total / 1e6
	values["netsim.starved_flow_share"] = ratio(float64(starved), float64(len(c.FlowBytes)))
	values["netsim.ns_per_delivered_frame"] = ratio(float64(wall.Nanoseconds()), float64(c.MAC["rx.data"]))
	values["sim.events_per_sim_s"] = ratio(float64(c.Events), c.SimTime.Seconds())
	values["sim.ns_per_event"] = ratio(float64(wall.Nanoseconds()), float64(c.Events))
}

// setupLayer writes the medians of the set-up phases.
func setupLayer(values map[string]float64, setups []setupTimes) {
	var topo, trace, build, sched []time.Duration
	for _, s := range setups {
		topo = append(topo, s.Topology)
		trace = append(trace, s.Trace)
		build = append(build, s.Build)
		sched = append(sched, s.Schedule)
	}
	values["topology.build_s"] = median(seconds(topo))
	values["topology.trace_synth_s"] = median(seconds(trace))
	values["netsim.build_s"] = median(seconds(build))
	values["netsim.schedule_trace_s"] = median(seconds(sched))
}

// add sums two runs' counts (several floors); flows are listed per run.
func (c counts) add(o counts) counts {
	sum := func(a, b map[string]int64) map[string]int64 {
		out := map[string]int64{}
		for k, v := range a {
			out[k] += v
		}
		for k, v := range b {
			out[k] += v
		}
		return out
	}
	c.Events += o.Events
	c.SimTime += o.SimTime
	c.FlowBytes = append(append([]int64(nil), c.FlowBytes...), o.FlowBytes...)
	c.MAC, c.Comap = sum(c.MAC, o.MAC), sum(c.Comap, o.Comap)
	c.MapHits += o.MapHits
	c.MapMisses += o.MapMisses
	c.Fixes += o.Fixes
	return c
}

// runOffice is the office-comap workload: the Fig. 10 floor (3 APs, 9
// clients, 18 two-way 3 Mbps CBR flows, 10 m position error) with CO-MAP
// verdicts in-process. A run cycles over OfficeFloors floors generated from
// the seed until the budget is spent, so each floor runs several times; a
// floor's cost is the median of its runs, and the workload's cost is the sum
// over floors.
func runOffice(cfg config) (*outcome, error) {
	sc := cfg.Scale
	seeds := officeFloorSeeds(cfg.Seed, sc.OfficeFloors)
	o := &outcome{Values: map[string]float64{}, Inputs: map[string]any{"floor_seeds": seeds}}
	rt := newRuntimeStats()
	budget := cfg.Budget
	if cfg.Traced {
		// Half the budget measures the untraced reference the trace
		// overhead is taken against.
		budget /= 2
	}

	// Per floor and run: simulation wall and allocation, and the same with
	// the floor's set-up included.
	type floor struct {
		wall, alloc, cost, costAlloc []float64
		fixes                        int
		first                        *counts
	}
	floors := make([]floor, len(seeds))
	var setups []setupTimes
	var verdicts []float64
	var last *netsim.Network
	start := time.Now()
	for i := 0; i < len(seeds) || time.Since(start) < budget; i++ {
		k := i % len(seeds)
		a0 := rt.read().AllocBytes
		n, st, err := buildOffice(seeds[k], sc.OfficeSim)
		if err != nil {
			return nil, fmt.Errorf("office floor %d: %w", k, err)
		}
		a1 := rt.read().AllocBytes
		t0 := time.Now()
		n.Eng.RunUntil(sc.OfficeSim)
		wall := time.Since(t0)
		a2 := rt.read().AllocBytes
		o.Attempted++
		setups = append(setups, st)
		fl := &floors[k]
		fl.wall = append(fl.wall, wall.Seconds())
		fl.alloc = append(fl.alloc, float64(a2-a1))
		fl.cost = append(fl.cost, (st.total() + wall).Seconds())
		fl.costAlloc = append(fl.costAlloc, float64(a2-a0))
		c := collectCounts(n)
		fl.fixes = c.Fixes
		// Verdict timing runs after every floor run, so it samples the host
		// across the whole budget like the simulation does.
		hit, _ := timeAllowed(verdictKeys(n, 8), 2*time.Millisecond, false)
		verdicts = append(verdicts, hit)
		label := fmt.Sprintf("floor %d (seed %d)", k, seeds[k])
		if !checkFlows(o, label, n, c, officeCBR) {
			continue
		}
		if fl.first == nil {
			fl.first = &c
		} else if !checkSame(o, label+" rerun", *fl.first, c) {
			continue
		}
		last = n
	}
	if last == nil {
		return o, nil
	}

	var wallSum, allocSum, costSum, costAllocSum float64
	fixes := 0
	for _, fl := range floors {
		wallSum += median(fl.wall)
		allocSum += median(fl.alloc)
		costSum += median(fl.cost)
		costAllocSum += median(fl.costAlloc)
		fixes += fl.fixes
	}
	simSum := sc.OfficeSim.Seconds() * float64(len(floors))
	v := o.Values
	v["wall_per_sim_s"] = wallSum / simSum
	v["alloc_mb_per_sim_s"] = allocSum / simSum / 1e6
	var totals []time.Duration
	for _, s := range setups {
		totals = append(totals, s.total())
	}
	v["setup_s"] = median(seconds(totals))
	v["fixes_per_s"] = float64(fixes) / costSum
	v["alloc_b_per_fix"] = ratio(costAllocSum, float64(fixes))
	v["verdict_p50_us"] = median(verdicts) / 1e3
	v["max_rss_mb"] = maxRSSMB()
	if !cfg.Traced {
		return o, nil
	}

	// Traced phase: every floor once more with the tracer attached; each must
	// simulate exactly what its untraced runs did.
	gc := beginGC(rt)
	total := &tracer{dispatch: &dispatchTimer{}, channel: &channelProbe{}}
	var sum counts
	var tracedWall time.Duration
	var tracedAlloc uint64
	var txStarts, collisions int64
	peak := 0
	var lastTraced *netsim.Network
	for k, s := range seeds {
		n, _, err := buildOffice(s, sc.OfficeSim)
		if err != nil {
			return nil, fmt.Errorf("office floor %d: %w", k, err)
		}
		r := runTraced(n, sc.OfficeSim, 50*time.Millisecond, rt, gc)
		o.Attempted++
		if floors[k].first == nil || !checkSame(o, fmt.Sprintf("traced floor %d", k), *floors[k].first, r.c) {
			continue
		}
		total.add(r.tr)
		sum = sum.add(r.c)
		tracedWall += r.wall
		tracedAlloc += r.allocBytes
		txStarts += r.txStarts
		collisions += r.collisions
		peak = max(peak, r.pendingPeak)
		lastTraced = n
	}
	gc.report(v)
	if lastTraced == nil {
		return o, nil
	}
	total.report(v, txStarts, collisions)
	layerCounts(v, sum)
	untracedWall := time.Duration(wallSum * float64(time.Second))
	netsimLayer(v, sum, untracedWall)
	v["sim.pending_peak"] = float64(peak)
	setupLayer(v, setups)
	v["trace_overhead_pct"] = 100 * (tracedWall.Seconds()/wallSum - 1)
	v["trace_alloc_delta_pct"] = 100 * (float64(tracedAlloc)/allocSum - 1)
	checkAllocDelta(o, v["trace_alloc_delta_pct"])
	v["comap.allowed_hit_ns"], v["comap.allowed_miss_ns"] = timeAllowed(verdictKeys(lastTraced, 8), 400*time.Millisecond, true)
	var err error
	v["channel.transmit_ns"], v["channel.aggregate_signal_ns"], err = timeMedium(lastTraced, 400*time.Millisecond)
	return o, err
}

// maxTraceAllocDeltaPct bounds how much more the traced run may allocate
// than the untraced one: the observer and listener wrapper allocate nothing
// per event, so only the per-step sampling may show.
const maxTraceAllocDeltaPct = 10

func checkAllocDelta(o *outcome, pct float64) {
	if pct > maxTraceAllocDeltaPct || pct < -maxTraceAllocDeltaPct {
		o.fail("traced run allocated %+.1f%% against the untraced run", pct)
	}
}

// cityWallPerWindow is what one 100 ms city window costs on a 2-vCPU Xeon VM
// (3.5–5.7 s over seeds 101–105). cityWindows sizes the simulated span from
// --seconds with it, so the span depends on the budget alone, never on how
// fast the code under test runs.
const cityWallPerWindow = 4500 * time.Millisecond

// cityWindows is the number of measured windows, after the warm-up window,
// that fit in budget.
func cityWindows(budget time.Duration) int {
	return max(1, int(math.Round(float64(budget)/float64(cityWallPerWindow)))-1)
}

// runCity is the city-comap-remote workload: topology.CityScale with
// SynthesizeCityTrace walkers and churn, CO-MAP with every verdict miss and
// every fix going through mapsvc. It simulates a fixed span: one warm-up
// window, which builds the lazily built channel geometry and fills the empty
// co-occurrence maps, then CityWindows measured windows. The cost is the
// total over the measured windows.
func runCity(cfg config) (*outcome, error) {
	sc := cfg.Scale
	span := sc.CityWindow * time.Duration(1+sc.CityWindows)
	o := &outcome{Values: map[string]float64{}, Inputs: map[string]any{
		"city_seed": cfg.Seed, "trace_seed": cfg.Seed, "sim_seed": cfg.Seed,
		"span_ms": span.Milliseconds(),
	}}
	rt := newRuntimeStats()

	// Set-up is timed several times; the last network is the one run. Each
	// network is dropped before the next is built, so the run's heap and
	// resident set hold one city.
	var setups []setupTimes
	var n *netsim.Network
	var setupAlloc uint64
	for i := 0; i < max(1, sc.SetupReps); i++ {
		n = nil
		a0 := rt.read().AllocBytes
		next, st, err := buildCity(cfg.Seed, sc.CityStations, span)
		if err != nil {
			return nil, fmt.Errorf("city set-up: %w", err)
		}
		setupAlloc = rt.read().AllocBytes - a0
		setups = append(setups, st)
		n = next
	}

	var runWall, measuredWall time.Duration
	var runAlloc, measuredAlloc uint64
	var warm mapsvc.ServiceStatus
	for w := 1; w <= 1+sc.CityWindows; w++ {
		a0 := rt.read().AllocBytes
		t0 := time.Now()
		n.Eng.RunUntil(sc.CityWindow * time.Duration(w))
		wall, alloc := time.Since(t0), rt.read().AllocBytes-a0
		runWall += wall
		runAlloc += alloc
		if w == 1 {
			warm = n.MapService.Status()
		} else {
			measuredWall += wall
			measuredAlloc += alloc
		}
	}
	o.Attempted++
	c := collectCounts(n)
	checkCity(o, "city run", n, c)
	// The run's counts are read, so the maps may now be exercised.
	hit, _ := timeAllowed(verdictKeys(n, 4), 1500*time.Millisecond, false)

	v := o.Values
	measuredSim := (sc.CityWindow * time.Duration(sc.CityWindows)).Seconds()
	v["wall_per_sim_s"] = measuredWall.Seconds() / measuredSim
	v["alloc_mb_per_sim_s"] = float64(measuredAlloc) / measuredSim / 1e6
	var totals []time.Duration
	for _, s := range setups {
		totals = append(totals, s.total())
	}
	v["setup_s"] = median(seconds(totals))
	v["fixes_per_s"] = float64(c.Fixes) / (v["setup_s"] + runWall.Seconds())
	v["alloc_b_per_fix"] = ratio(float64(setupAlloc+runAlloc), float64(c.Fixes))
	v["verdict_p50_us"] = hit / 1e3
	v["max_rss_mb"] = maxRSSMB()
	if !cfg.Traced {
		return o, nil
	}

	// Traced phase: the same inputs over the same simulated span.
	gc := beginGC(rt)
	tn, _, err := buildCity(cfg.Seed, sc.CityStations, span)
	if err != nil {
		return nil, err
	}
	r := runTraced(tn, c.SimTime, 10*time.Millisecond, rt, gc)
	gc.report(v)
	o.Attempted++
	if !checkSame(o, "traced city run", c, r.c) {
		return o, nil
	}
	r.tr.report(v, r.txStarts, r.collisions)
	layerCounts(v, c)
	netsimLayer(v, c, runWall)
	mapsvcSimLayer(v, c)
	v["mapsvc.verdicts_per_sim_s"] = float64(c.Service.VerdictsServed-warm.VerdictsServed) / measuredSim
	v["sim.pending_peak"] = float64(r.pendingPeak)
	setupLayer(v, setups)
	v["trace_overhead_pct"] = 100 * (r.wall.Seconds()/runWall.Seconds() - 1)
	v["trace_alloc_delta_pct"] = 100 * (float64(r.allocBytes)/float64(runAlloc) - 1)
	checkAllocDelta(o, v["trace_alloc_delta_pct"])
	v["comap.allowed_hit_ns"], v["comap.allowed_miss_ns"] = timeAllowed(verdictKeys(tn, 4), 600*time.Millisecond, true)
	v["channel.transmit_ns"], v["channel.aggregate_signal_ns"], err = timeMedium(tn, 1500*time.Millisecond)
	return o, err
}

// checkCity applies the city's output checks: no flow beats the PHY rate,
// the network delivers, and — the control plane being fault-free — the
// client never retries or fails and serves every decision from the fresh
// rung.
func checkCity(o *outcome, label string, n *netsim.Network, c counts) {
	top := 0.0
	for _, r := range n.Opts.PHY.Rates {
		top = max(top, r.BitsPerSec)
	}
	if !checkFlows(o, label, n, c, top) {
		return
	}
	cl := c.Client
	if cl.Retries != 0 || cl.Failures != 0 || cl.Fresh != cl.Decisions || cl.Decisions == 0 {
		o.fail("%s: control plane degraded: %d retries, %d failures, %d of %d decisions fresh",
			label, cl.Retries, cl.Failures, cl.Fresh, cl.Decisions)
	}
}

// mapsvcSimLayer writes the mapsvc.* counters of a remote-verdict run.
func mapsvcSimLayer(values map[string]float64, c counts) {
	s := c.Service
	values["mapsvc.ingested"] = float64(s.Ingested)
	values["mapsvc.verdicts_served"] = float64(s.VerdictsServed)
	values["mapsvc.verdicts_computed"] = float64(s.VerdictsComputed)
	values["mapsvc.verdicts_computed_ratio"] = ratio(float64(s.VerdictsComputed), float64(s.VerdictsServed))
	values["mapsvc.cache_hit_ratio"] = 1 - values["mapsvc.verdicts_computed_ratio"]
	values["mapsvc.invalidations"] = float64(s.Invalidations)
	values["mapsvc.wal_records"] = float64(s.WALRecords)
	values["mapsvc.client_retries"] = float64(c.Client.Retries)
	values["mapsvc.client_fresh_share"] = ratio(float64(c.Client.Fresh), float64(c.Client.Decisions))
}
