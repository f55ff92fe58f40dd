package main

import (
	"time"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// tagGroup maps a dispatch tag to its bucket in tagGroups.
func tagGroup(t sim.Tag) int {
	switch t {
	case sim.TagMAC:
		return 0
	case sim.TagChannel:
		return 1
	case sim.TagComap:
		return 2
	case sim.TagTraffic:
		return 3
	case sim.TagLocx:
		return 4
	case sim.TagFaults:
		return 5
	default:
		return 6
	}
}

// clock is a monotonic nanosecond clock; time.Since reads the monotonic
// reading and allocates nothing.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// dispatchTimer is the traced run's sim.Observer. It counts every dispatched
// event by tag and charges the wall time between consecutive dispatches to
// the earlier event's tag, which is the time that event's callback ran. It is
// allocation-free, as the Observer contract requires.
type dispatchTimer struct {
	clk     clock
	running bool
	lastTag int
	lastNs  int64
	events  [numGroups]uint64
	wallNs  [numGroups]int64
}

// OnEvent implements sim.Observer.
func (d *dispatchTimer) OnEvent(_ time.Duration, tag sim.Tag, _ int32) {
	now := d.clk.now()
	if d.running {
		d.wallNs[d.lastTag] += now - d.lastNs
	}
	g := tagGroup(tag)
	d.running, d.lastTag, d.lastNs = true, g, now
	d.events[g]++
}

// pause charges the last event's time and stops the clock until the next
// dispatch; call it whenever the engine returns control to the benchmark.
func (d *dispatchTimer) pause() {
	if d.running {
		d.wallNs[d.lastTag] += d.clk.now() - d.lastNs
		d.running = false
	}
}

// channelProbe times the station callbacks the channel makes. Every
// transceiver's listener is wrapped in a probedListener sharing one probe;
// only the outermost callback is timed (a callback can transmit, which calls
// back into other stations), and its time is charged to the dispatch tag of
// the event it ran inside.
type channelProbe struct {
	eng        *sim.Engine
	clk        clock
	depth      int
	startNs    int64
	tag        int
	callbackNs [numGroups]int64

	energy, done    uint64
	locks, locksOK  uint64
	headerIndicated uint64
}

func (p *channelProbe) enter() {
	if p.depth == 0 {
		t, _ := p.eng.Context()
		p.tag = tagGroup(t)
		p.startNs = p.clk.now()
	}
	p.depth++
}

func (p *channelProbe) exit() {
	p.depth--
	if p.depth == 0 {
		p.callbackNs[p.tag] += p.clk.now() - p.startNs
	}
}

// probedListener forwards every callback to the station's own listener.
type probedListener struct {
	inner channel.Listener
	p     *channelProbe
}

func (l *probedListener) EnergyChanged(aggregateDBm float64) {
	l.p.energy++
	l.p.enter()
	l.inner.EnergyChanged(aggregateDBm)
	l.p.exit()
}

func (l *probedListener) FrameReceived(f frame.Frame, ok bool, rssiDBm float64) {
	if f.Kind == frame.ComapHeader && f.Retry {
		// The embedded discovery header of a frame still on the air, not
		// the end of a reception.
		l.p.headerIndicated++
	} else {
		l.p.locks++
		if ok {
			l.p.locksOK++
		}
	}
	l.p.enter()
	l.inner.FrameReceived(f, ok, rssiDBm)
	l.p.exit()
}

func (l *probedListener) TransmitDone(f frame.Frame) {
	l.p.done++
	l.p.enter()
	l.inner.TransmitDone(f)
	l.p.exit()
}

// tracer is everything attached to one traced network.
type tracer struct {
	dispatch *dispatchTimer
	channel  *channelProbe
}

// attachTracer installs the dispatch observer and wraps every station's
// listener. Call after netsim.Build and before the first event runs.
func attachTracer(n *netsim.Network) *tracer {
	clk := clock{base: time.Now()}
	t := &tracer{
		dispatch: &dispatchTimer{clk: clk},
		channel:  &channelProbe{eng: n.Eng, clk: clk},
	}
	n.Eng.SetObserver(t.dispatch)
	for _, tr := range n.Medium.Nodes() {
		if l := tr.Listener(); l != nil {
			tr.SetListener(&probedListener{inner: l, p: t.channel})
		}
	}
	return t
}

// add folds another tracer's totals into t (several traced floors).
func (t *tracer) add(o *tracer) {
	for i := range t.dispatch.events {
		t.dispatch.events[i] += o.dispatch.events[i]
		t.dispatch.wallNs[i] += o.dispatch.wallNs[i]
		t.channel.callbackNs[i] += o.channel.callbackNs[i]
	}
	c, oc := t.channel, o.channel
	c.energy += oc.energy
	c.done += oc.done
	c.locks += oc.locks
	c.locksOK += oc.locksOK
	c.headerIndicated += oc.headerIndicated
}

// report writes the sim.tag.* and channel.* metrics the tracer measured.
// txStarts and collisions come from the medium's registry.
func (t *tracer) report(values map[string]float64, txStarts, collisions int64) {
	d, c := t.dispatch, t.channel
	var callbacks int64
	for i, g := range tagGroups {
		values["sim.tag."+g+".events"] = float64(d.events[i])
		values["sim.tag."+g+".wall_s"] = float64(d.wallNs[i]) / 1e9
		values["channel.callback_s."+g] = float64(c.callbackNs[i]) / 1e9
		callbacks += c.callbackNs[i]
	}
	values["channel.callbacks"] = float64(c.energy + c.done + c.locks + c.headerIndicated)
	values["channel.callback_s"] = float64(callbacks) / 1e9
	ch := tagGroup(sim.TagChannel)
	values["channel.self_s"] = float64(d.wallNs[ch]-c.callbackNs[ch]) / 1e9
	values["channel.tx_starts"] = float64(txStarts)
	values["channel.rx_locks"] = float64(c.locks)
	values["channel.rx_ok_ratio"] = ratio(float64(c.locksOK), float64(c.locks))
	values["channel.energy_fanout"] = ratio(float64(c.energy), float64(txStarts))
	values["channel.collisions"] = float64(collisions)
}
