package netsim

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/topology"
	"repro/internal/trace"
)

// chaosSpec exercises every degradation path at once: sustained report loss,
// a localization outage on the active sender, and the exposed terminal
// leaving and re-joining mid-run.
const chaosSpec = "locloss:p=0.6;outage:node=1,at=500ms,dur=700ms;churn:node=2,at=1500ms,dur=500ms"

func mustParse(t *testing.T, s string) *faults.Spec {
	t.Helper()
	spec, err := faults.Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return spec
}

// TestChaosComapDegradesTowardDCF is the headline robustness property: under
// seeded location faults CO-MAP falls back to plain-DCF decisions instead of
// acting on garbage coordinates, so its goodput must stay within a hair of
// the DCF baseline on the same faulted run — the faults can cost it the
// concurrency gain, never materially more.
func TestChaosComapDegradesTowardDCF(t *testing.T) {
	top := topology.ETSweep(30)
	spec := mustParse(t, chaosSpec)

	var dcfTotal, cmTotal float64
	var fallbacks int64
	var buf trace.Buffer
	const seeds = 3
	for s := int64(0); s < seeds; s++ {
		base := TestbedOptions()
		base.Seed = 7 + s
		base.Duration = 2 * time.Second
		base.Faults = spec

		dcf := base
		dcf.Protocol = ProtocolDCF
		dcfRes, err := RunScenario(top, dcf)
		if err != nil {
			t.Fatal(err)
		}
		dcfTotal += dcfRes.Total()

		cm := base
		cm.Protocol = ProtocolComap
		cm.Trace = &buf
		n, err := Build(top, cm)
		if err != nil {
			t.Fatal(err)
		}
		cmTotal += n.Run().Total()
		fallbacks += n.Summarize().FallbackDCF
	}

	if cmTotal < 0.95*dcfTotal {
		t.Errorf("faulted CO-MAP total %.2f Mbps < 0.95x faulted DCF %.2f Mbps",
			cmTotal/1e6, dcfTotal/1e6)
	}
	if fallbacks == 0 {
		t.Error("no fallback-to-DCF decisions recorded in metrics under chaos spec")
	}
	kinds := map[string]int{}
	for _, e := range buf.Events {
		kinds[e.Kind]++
	}
	if kinds[trace.KindCoFallback] == 0 {
		t.Errorf("no %q events in trace, kinds seen: %v", trace.KindCoFallback, kinds)
	}
	if kinds[trace.KindFault] == 0 {
		t.Errorf("no %q events in trace, kinds seen: %v", trace.KindFault, kinds)
	}
}

// TestFaultedReportBitIdentical: identical (seed, spec) must reproduce the
// run bit-for-bit, fault activations included. Wall-clock self-profiling
// fields are the only permitted difference and are zeroed before comparison.
func TestFaultedReportBitIdentical(t *testing.T) {
	top := topology.ETSweep(30)

	run := func() []byte {
		opts := TestbedOptions()
		opts.Protocol = ProtocolComap
		opts.Seed = 99
		opts.Duration = 2 * time.Second
		opts.Faults = mustParse(t, chaosSpec)
		n, err := Build(top, opts)
		if err != nil {
			t.Fatal(err)
		}
		res := n.Run()
		rep := n.Report(res)
		rep.Engine.WallSec = 0
		rep.Engine.EventsPerSec = 0
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("faulted reports diverged:\n%s\nvs\n%s", a, b)
	}
	var rep Report
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Faults == nil {
		t.Fatal("faulted run report missing faults block")
	}
	if rep.Faults.Injected == 0 {
		t.Error("faults block records zero activations")
	}
	if rep.Faults.DroppedReports == 0 {
		t.Error("locloss:p=0.6 over 2s dropped zero reports")
	}
}

// TestChurnLeaveAndRejoin drives a churn window directly through the
// injector under both protocols and checks the observable transitions: the
// station is off the network during the window and its flow resumes
// delivering after re-join. Under CO-MAP its peers also invalidated their
// cached verdicts about it (per-node, on both leave and re-join); DCF has no
// verdicts.
func TestChurnLeaveAndRejoin(t *testing.T) {
	for _, proto := range []Protocol{ProtocolComap, ProtocolDCF} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			top := topology.ETSweep(30)
			opts := TestbedOptions()
			opts.Protocol = proto
			opts.Seed = 5
			opts.Duration = 3 * time.Second
			opts.Faults = mustParse(t, "churn:node=2,at=1s,dur=1s")

			n, err := Build(top, opts)
			if err != nil {
				t.Fatal(err)
			}
			var duringWindow, afterWindow bool
			n.Eng.After(1500*time.Millisecond, func() { duringWindow = n.departed[topology.C2] })
			n.Eng.After(2500*time.Millisecond, func() { afterWindow = n.departed[topology.C2] })

			sink := n.Stations[topology.AP2].Peer
			var bytesAtLeave, bytesAtRejoin int64
			n.Eng.After(time.Second+100*time.Millisecond, func() {
				bytesAtLeave = sink.DeliveredFrom(topology.C2).Bytes()
			})
			n.Eng.After(2*time.Second+time.Millisecond, func() {
				bytesAtRejoin = sink.DeliveredFrom(topology.C2).Bytes()
			})

			res := n.Run()
			CheckRunInvariants(t, n)
			if !duringWindow {
				t.Error("station 2 not marked departed inside churn window")
			}
			if afterWindow {
				t.Error("station 2 still departed after churn window closed")
			}
			if bytesAtRejoin != bytesAtLeave {
				t.Errorf("flow 2->AP2 kept delivering while away: %d bytes 100 ms into the window, %d at re-join",
					bytesAtLeave, bytesAtRejoin)
			}
			finalBytes := sink.DeliveredFrom(topology.C2).Bytes()
			if finalBytes <= bytesAtRejoin {
				t.Errorf("flow 2->AP2 did not resume after re-join: %d bytes at re-join, %d at end",
					bytesAtRejoin, finalBytes)
			}
			if g := res.Goodput(topology.Flow{Src: topology.C2, Dst: topology.AP2}); g <= 0 {
				t.Errorf("churned flow goodput = %v, want > 0", g)
			}
			if proto != ProtocolComap {
				return
			}
			// Peers invalidate the churned node's verdicts on leave and again
			// on re-join.
			inval := n.Stations[topology.C1].Metrics.Counter("comap.map.invalidate").Value()
			if inval < 2 {
				t.Errorf("peer C1 recorded %d invalidations, want >= 2 (leave + re-join)", inval)
			}
		})
	}
}

// TestFaultsRequireKnownNodes: a spec naming a node outside the topology
// must be rejected at Build time, not silently ignored.
func TestFaultsRequireKnownNodes(t *testing.T) {
	top := topology.ETSweep(30)
	opts := TestbedOptions()
	opts.Faults = mustParse(t, "outage:node=77,at=1s,dur=1s")
	if _, err := Build(top, opts); err == nil {
		t.Error("spec targeting unknown node 77 accepted")
	}
}

// TestUnfaultedRunsUnperturbed: adding the faults layer must not change
// runs that do not use it — same seed with and without the (nil) spec.
func TestUnfaultedRunsUnperturbed(t *testing.T) {
	top := topology.ETSweep(30)
	opts := TestbedOptions()
	opts.Protocol = ProtocolComap
	opts.Seed = 11
	opts.Duration = time.Second

	res, err := RunScenario(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows[0].GoodputBps <= 0 {
		t.Fatal("sanity: no goodput")
	}
	n, err := Build(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n.injector != nil {
		t.Error("injector built without a fault spec")
	}
	if s := n.Summarize(); s.FallbackDCF != 0 {
		t.Errorf("unfaulted run recorded %d DCF fallbacks before running", s.FallbackDCF)
	}
}
