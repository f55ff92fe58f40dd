package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/sim"
	"repro/internal/topology"
)

// tinyScale runs every workload in well under a second.
func tinyScale() scale {
	return scale{
		OfficeFloors: 3,
		OfficeSim:    500 * time.Millisecond,
		CityStations: 200,
		CityWindows:  2,
		CityWindow:   20 * time.Millisecond,
		MapdStations: 200,
		MapdSpan:     2 * time.Second,
		MapdRate:     200,
		MapdWarmup:   100 * time.Millisecond,
		SetupReps:    2,
	}
}

// benchmarkFile is the metric part of the repository's BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the metrics and
// workloads this program reports.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := readBenchmarkFile(t)
	units := func(defs []metricDef) map[string]string {
		m := map[string]string{}
		for _, d := range defs {
			m[d.Name] = d.Unit
		}
		return m
	}
	if got, want := units(b.EndToEnd), units(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, program reports %v", got, want)
	}
	if got, want := units(b.PerLayer), units(perLayer()); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer in BENCHMARK.json = %v, program reports %v", got, want)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// TestWorkloadsReportEveryMetric runs each workload at a tiny scale, untraced
// and traced, and checks that it passes its own checks and prints every
// named metric with its unit.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	b := readBenchmarkFile(t)
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			o, err := run(config{Seed: 3, Budget: 200 * time.Millisecond, Traced: traced, Scale: tinyScale()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			r, err := finish(o, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", name, traced, r.Correct, r.Attempted, r.Failed, o.Problems)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(r.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := r.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", name, traced, d.Name, m.Unit, d.Unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.Name, m.Value)
				}
			}
			if _, err := json.Marshal(r); err != nil {
				t.Errorf("%s traced=%v: %v", name, traced, err)
			}
		}
	}
}

// TestTracerAllocatesNothing holds the dispatch observer and the listener
// wrapper to the sim.Observer contract: no allocation per event or callback.
func TestTracerAllocatesNothing(t *testing.T) {
	clk := clock{base: time.Now()}
	d := &dispatchTimer{clk: clk}
	l := &probedListener{inner: nopListener{}, p: &channelProbe{eng: sim.New(1), clk: clk}}
	f := frame.Frame{Kind: frame.Data, Src: 1, Dst: 2, PayloadBytes: 1000}
	allocs := testing.AllocsPerRun(1000, func() {
		d.OnEvent(time.Millisecond, sim.TagMAC, 1)
		l.EnergyChanged(-70)
		l.FrameReceived(f, true, -60)
		l.TransmitDone(f)
		d.pause()
	})
	if allocs != 0 {
		t.Errorf("%v allocations per traced event", allocs)
	}
}

// TestGeneratorsDeterministic checks that a seed fixes every generated input:
// the office floors, the city and its trace, the ingest batch bytes and the
// verdict key sequence — and that another seed changes them.
func TestGeneratorsDeterministic(t *testing.T) {
	type inputs struct {
		floors []topology.Topology
		city   topology.Topology
		trace  *topology.LocTrace
		bodies [][]byte
		keys   []any
	}
	gen := func(seed int64) inputs {
		var in inputs
		for _, s := range officeFloorSeeds(seed, 3) {
			in.floors = append(in.floors, topology.LargeScale(rand.New(rand.NewSource(s))))
		}
		n, _, err := buildCity(seed, 100, 300*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		in.city = n.Top
		in.trace = topology.SynthesizeCityTrace(n.Top, rand.New(rand.NewSource(seed)), topology.CityTraceConfig{Duration: 300 * time.Millisecond})
		top, err := mapdCity(seed, 100)
		if err != nil {
			t.Fatal(err)
		}
		in.bodies = genStream(seed, top, time.Second)
		g := newKeyGen(seed, top)
		for i := 0; i < 50; i++ {
			in.keys = append(in.keys, g.next())
		}
		return in
	}
	a, b, c := gen(5), gen(5), gen(6)
	if !reflect.DeepEqual(a.floors, b.floors) || !reflect.DeepEqual(a.city, b.city) ||
		!reflect.DeepEqual(a.trace, b.trace) || !reflect.DeepEqual(a.keys, b.keys) {
		t.Error("the same seed generated different inputs")
	}
	if !bytes.Equal(bytes.Join(a.bodies, nil), bytes.Join(b.bodies, nil)) {
		t.Error("the same seed generated different ingest batches")
	}
	if reflect.DeepEqual(a.floors, c.floors) || reflect.DeepEqual(a.city.Nodes, c.city.Nodes) ||
		reflect.DeepEqual(a.trace, c.trace) || reflect.DeepEqual(a.keys, c.keys) ||
		bytes.Equal(bytes.Join(a.bodies, nil), bytes.Join(c.bodies, nil)) {
		t.Error("another seed generated the same inputs")
	}
	if len(a.trace.Events) == 0 || len(a.bodies) == 0 {
		t.Errorf("degenerate inputs: %d trace events, %d batches", len(a.trace.Events), len(a.bodies))
	}
}
