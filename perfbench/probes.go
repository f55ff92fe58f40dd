package main

import (
	"time"

	"repro/internal/channel"
	"repro/internal/comap"
	"repro/internal/frame"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Sinks keep the timed calls' results alive.
var (
	sinkBool  bool
	sinkFloat float64
)

// timeRounds runs body repeatedly — at least three times, then until the
// budget is spent — and returns the median over rounds of the per-operation
// nanoseconds, each round doing ops operations. prepare runs untimed before
// each round.
func timeRounds(budget time.Duration, ops int, prepare, body func()) float64 {
	var perOp []float64
	start := time.Now()
	for r := 0; r < 3 || time.Since(start) < budget; r++ {
		if prepare != nil {
			prepare()
		}
		t0 := time.Now()
		body()
		perOp = append(perOp, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	return median(perOp)
}

// verdictKey is one Agent.Allowed call: the agent of a flow's source asks
// whether it may send to the flow's destination while another flow of the
// workload is on the air.
type verdictKey struct {
	agent           *comap.Agent
	src, dst, myDst frame.NodeID
}

// verdictKeys pairs each flow with the next `others` flows of the topology
// (skipping the source's own flows) as ongoing links.
func verdictKeys(n *netsim.Network, others int) []verdictKey {
	flows := n.Top.Flows
	var keys []verdictKey
	for i, f := range flows {
		a := n.Stations[f.Src].Agent
		for j := 1; j <= others && j < len(flows); j++ {
			g := flows[(i+j)%len(flows)]
			if g.Src == f.Src {
				continue
			}
			keys = append(keys, verdictKey{agent: a, src: g.Src, dst: g.Dst, myDst: f.Dst})
		}
	}
	return keys
}

// timeAllowed times Agent.Allowed per call after the run: on hits, with
// every key's verdict already in the co-occurrence map, and — when misses
// is set — on misses, right after every agent's OnPositionsChanged. It
// mutates the agents' maps and counters, so read the run's counts first.
func timeAllowed(keys []verdictKey, budget time.Duration, misses bool) (hitNs, missNs float64) {
	if len(keys) == 0 {
		return 0, 0
	}
	call := func() {
		for _, k := range keys {
			sinkBool = k.agent.Allowed(k.src, k.dst, k.myDst)
		}
	}
	call() // fill the maps
	if !misses {
		return timeRounds(budget, len(keys), nil, call), 0
	}
	hitNs = timeRounds(budget/2, len(keys), nil, call)
	agents := map[*comap.Agent]bool{}
	for _, k := range keys {
		agents[k.agent] = true
	}
	invalidate := func() {
		for a := range agents {
			a.OnPositionsChanged()
		}
	}
	return hitNs, timeRounds(budget/2, len(keys), invalidate, call)
}

// nopListener is a station without a MAC.
type nopListener struct{}

func (nopListener) EnergyChanged(float64)                    {}
func (nopListener) FrameReceived(frame.Frame, bool, float64) {}
func (nopListener) TransmitDone(frame.Frame)                 {}

// timeMedium replays the workload's geometry on a bare channel: the
// network's node positions and shard grid loaded into channel.NewMedium with
// no-op listeners. It times one Transmit plus its delivery through
// Engine.Run, node by node, and one AggregateSignalDBm with up to 16
// transmissions on the air.
func timeMedium(n *netsim.Network, budget time.Duration) (transmitNs, aggregateNs float64, err error) {
	opts := n.Opts
	eng := sim.New(opts.Seed)
	m := channel.NewMedium(eng, opts.Prop, opts.PHY.NoiseFloorDBm)
	if n.Top.World != nil {
		m.SetGrid(n.Top.World)
	}
	if opts.AudibilityMarginDB != 0 {
		m.AudibilityMarginDB = opts.AudibilityMarginDB
	}
	var trs []*channel.Transceiver
	for _, node := range n.Top.Nodes {
		trs = append(trs, m.AddNode(node.ID, node.Pos, opts.TxPowerDBm, nopListener{}))
	}
	rate := opts.PHY.LowestRate()
	send := func(i int) error {
		f := frame.Frame{Kind: frame.Data, Src: trs[i].ID(), Dst: trs[(i+1)%len(trs)].ID(), PayloadBytes: opts.PayloadBytes}
		return trs[i].Transmit(f, rate, opts.PHY.FrameAirtime(rate, f.AirBytes()))
	}
	// The first transmission builds the geometry; keep it out of the timing.
	if err := send(0); err != nil {
		return 0, 0, err
	}
	eng.Run()

	transmitNs = timeRounds(budget/2, len(trs), nil, func() {
		for i := range trs {
			if err == nil {
				err = send(i)
			}
			eng.Run()
		}
	})
	if err != nil {
		return 0, 0, err
	}

	stride := max(1, len(trs)/16)
	for i := 0; i < len(trs); i += stride {
		if err := send(i); err != nil {
			return 0, 0, err
		}
	}
	aggregateNs = timeRounds(budget/2, len(trs), nil, func() {
		for _, tr := range trs {
			sinkFloat = tr.AggregateSignalDBm()
		}
	})
	eng.Run()
	return transmitNs, aggregateNs, nil
}
