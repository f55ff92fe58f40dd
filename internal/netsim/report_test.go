package netsim

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/topology"
)

func runReportScenario(t *testing.T, slice time.Duration) (*Network, *Report) {
	t.Helper()
	top := topology.ETSweep(28)
	opts := TestbedOptions()
	opts.Seed = 7
	opts.Protocol = ProtocolComap
	opts.Duration = time.Second
	n, err := Build(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	n.StartSlicing(slice)
	res := n.Run()
	CheckRunInvariants(t, n)
	return n, n.Report(res)
}

func TestReportBasics(t *testing.T) {
	_, rep := runReportScenario(t, 0)
	if rep.Topology == "" || rep.Protocol != "CO-MAP" {
		t.Errorf("identity fields wrong: %q %q", rep.Topology, rep.Protocol)
	}
	if rep.DurationSec != 1 {
		t.Errorf("duration_sec = %v, want 1", rep.DurationSec)
	}
	if rep.SliceSec != 0 {
		t.Errorf("slice_sec = %v with slicing off, want 0", rep.SliceSec)
	}
	if rep.Engine.EventsFired == 0 || rep.Engine.EventsPerSec <= 0 {
		t.Errorf("engine profile empty: %+v", rep.Engine)
	}
	if len(rep.Flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(rep.Flows))
	}
	for _, f := range rep.Flows {
		if f.GoodputBps <= 0 {
			t.Errorf("flow %d->%d goodput %v, want > 0", f.Src, f.Dst, f.GoodputBps)
		}
		if f.Slices != nil {
			t.Errorf("flow %d->%d has slices with slicing off", f.Src, f.Dst)
		}
	}
}

func TestReportAirtimeSumsToDuration(t *testing.T) {
	_, rep := runReportScenario(t, 0)
	for _, st := range rep.Stations {
		total := 0.0
		for _, sec := range st.AirtimeSec {
			total += sec
		}
		if math.Abs(total-rep.DurationSec) > 1e-6 {
			t.Errorf("station %d airtime sums to %.9f s, want %.9f", st.ID, total, rep.DurationSec)
		}
	}
}

func TestReportLatencyPercentiles(t *testing.T) {
	_, rep := runReportScenario(t, 0)
	sawLatency := false
	for _, st := range rep.Stations {
		if st.LatencyMs == nil {
			continue
		}
		sawLatency = true
		l := st.LatencyMs
		if l.N <= 0 || l.P50 <= 0 || l.P50 > l.P90 || l.P90 > l.P99 || l.P99 > l.Max {
			t.Errorf("station %d latency summary not ordered: %+v", st.ID, l)
		}
	}
	if !sawLatency {
		t.Error("no station reported access latency in a run with traffic")
	}
}

func TestReportSlices(t *testing.T) {
	_, rep := runReportScenario(t, 250*time.Millisecond)
	if rep.SliceSec != 0.25 {
		t.Errorf("slice_sec = %v, want 0.25", rep.SliceSec)
	}
	for _, f := range rep.Flows {
		if len(f.Slices) != 4 {
			t.Fatalf("flow %d->%d has %d slices, want 4", f.Src, f.Dst, len(f.Slices))
		}
		var totalBytes int64
		prevEnd := 0.0
		for _, s := range f.Slices {
			if s.StartSec != prevEnd {
				t.Errorf("slice gap: start %v after end %v", s.StartSec, prevEnd)
			}
			if s.Bytes < 0 {
				t.Errorf("negative slice bytes: %+v", s)
			}
			totalBytes += s.Bytes
			prevEnd = s.EndSec
		}
		if prevEnd != rep.DurationSec {
			t.Errorf("last slice ends at %v, want %v", prevEnd, rep.DurationSec)
		}
		// The slice deltas must reassemble the flow's total goodput.
		got := float64(totalBytes) * 8 / rep.DurationSec
		if math.Abs(got-f.GoodputBps) > 1 {
			t.Errorf("slices sum to %.0f bps, flow total %.0f bps", got, f.GoodputBps)
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	_, rep := runReportScenario(t, 500*time.Millisecond)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.Topology != rep.Topology || len(back.Stations) != len(rep.Stations) {
		t.Error("round-tripped report lost content")
	}
	if back.Medium.Counters["tx_starts"] == 0 {
		t.Error("medium snapshot missing tx_starts counter")
	}
}

func TestReportDeterministic(t *testing.T) {
	_, a := runReportScenario(t, 500*time.Millisecond)
	_, b := runReportScenario(t, 500*time.Millisecond)
	// Wall-clock profiling legitimately differs between runs; everything else
	// must be identical.
	a.Engine.WallSec, b.Engine.WallSec = 0, 0
	a.Engine.EventsPerSec, b.Engine.EventsPerSec = 0, 0
	var ja, jb bytes.Buffer
	if err := a.WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Error("identical seeds produced different reports")
	}
}
