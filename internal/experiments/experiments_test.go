package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// tinyOpts keeps unit-test runtime low; shape assertions use Quick() where
// they need statistical stability.
func tinyOpts() Opts {
	return Opts{Seeds: 1, Duration: 500 * time.Millisecond, Topologies: 2}
}

// meanGoodput runs the scenario over opts.Seeds seeds (in parallel on the
// worker pool) and returns the mean goodput (bps) of the given flow.
func meanGoodput(top topology.Topology, base netsim.Options, o Opts, flow topology.Flow) (float64, error) {
	runs, err := runGrid(o, []gridCell{{top: top, opts: base}})
	if err != nil {
		return 0, err
	}
	return meanOverSeeds(runs[0], flow), nil
}

func TestFig1Shape(t *testing.T) {
	// Twenty seeds: each seed freezes one static shadow per pair, so a mean
	// over two seeds tests the draw rather than the model. Over seeds 0–239
	// the valley criterion below holds on 89 of 120 two-seed means and on 11
	// of 12 twenty-seed means.
	res, err := Fig1(Opts{Seeds: 20, Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.C1Goodput.Points) != len(ETPositions) {
		t.Fatalf("points = %d", len(res.C1Goodput.Points))
	}
	// The exposed-terminal valley: goodput while C2 is inside C1's CS range
	// (x in [20,30]) must be clearly below the goodput when C2 is far
	// (x = 36, concurrent-capable because C1 barely senses it).
	valley := valueAt(res.C1Goodput, 24)
	far := valueAt(res.C1Goodput, 36)
	if valley <= 0 {
		t.Fatal("no goodput in valley")
	}
	if far < 1.2*valley {
		t.Errorf("expected ET valley: goodput at 24 m = %.2f, at 36 m = %.2f", valley, far)
	}
}

func TestFig2Shape(t *testing.T) {
	res, err := Fig2(Opts{Seeds: 2, Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Without a hidden terminal the largest payload wins.
	n := res.NoHT.Points
	if n[len(n)-1].Y <= n[0].Y {
		t.Errorf("no-HT goodput should rise with payload: %v .. %v", n[0], n[len(n)-1])
	}
	// With one hidden terminal the link must be visibly degraded.
	h := res.OneHT.Points
	if h[len(h)-1].Y >= n[len(n)-1].Y {
		t.Errorf("HT should reduce goodput at large payloads: %.2f vs %.2f",
			h[len(h)-1].Y, n[len(n)-1].Y)
	}
}

func TestFig7ModelMatchesSimulation(t *testing.T) {
	panels, err := Fig7(Opts{Seeds: 1, Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 3 {
		t.Fatalf("panels = %d", len(panels))
	}
	// Panel h=0: model and simulation must agree on the W ordering at the
	// largest payload (smaller window wins without hidden terminals) and be
	// within a factor-2 band pointwise.
	p0 := panels[0]
	for wi := range Fig7Windows {
		for i := range p0.Model[wi].Points {
			m, s := p0.Model[wi].Points[i].Y, p0.Sim[wi].Points[i].Y
			if s <= 0 {
				t.Fatalf("zero sim goodput at W=%d payload=%v", Fig7Windows[wi], p0.Model[wi].Points[i].X)
			}
			if ratio := m / s; ratio > 2 || ratio < 0.5 {
				t.Errorf("h=0 W=%d payload=%.0f: model %.2f vs sim %.2f",
					Fig7Windows[wi], p0.Model[wi].Points[i].X, m, s)
			}
		}
	}
	// Hidden terminals must depress both model and simulation goodput.
	last := len(PayloadGrid) - 1
	if panels[2].Sim[0].Points[last].Y >= p0.Sim[0].Points[last].Y {
		t.Errorf("5 HTs should reduce simulated goodput at W=63")
	}
	if panels[2].Model[0].Points[last].Y >= p0.Model[0].Points[last].Y {
		t.Errorf("5 HTs should reduce modelled goodput at W=63")
	}
}

func TestFig8ComapWins(t *testing.T) {
	res, err := Fig8(Opts{Seeds: 3, Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.ETRegionGainPct < 10 {
		t.Errorf("mean ET-region gain = %.1f%%, want >= 10%%", res.ETRegionGainPct)
	}
	// At the far end of the sweep CO-MAP must be at least on par.
	dcfFar := valueAt(res.DCF, 36)
	cmFar := valueAt(res.Comap, 36)
	if cmFar < 0.9*dcfFar {
		t.Errorf("CO-MAP at 36 m = %.2f well below DCF %.2f", cmFar, dcfFar)
	}
}

func TestFig9ComapWins(t *testing.T) {
	res, err := Fig9(Opts{Seeds: 3, Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.DCF.Mean <= 0 || res.Comap.Mean <= 0 {
		t.Fatal("zero means")
	}
	if res.MeanGainPct < 0 {
		t.Errorf("CO-MAP mean gain negative: %.1f%%", res.MeanGainPct)
	}
	if len(res.DCF.Points) != 10 || len(res.Comap.Points) != 10 {
		t.Errorf("expected 10 topology samples, got %d/%d",
			len(res.DCF.Points), len(res.Comap.Points))
	}
}

func TestFig10ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("fig10 is slow")
	}
	res, err := Fig10(Opts{Seeds: 1, Duration: time.Second, Topologies: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.DCF.Mean <= 0 {
		t.Fatal("no DCF goodput")
	}
	if res.GainPerfectPct < 0 {
		t.Errorf("perfect-position CO-MAP below DCF: %.1f%%", res.GainPerfectPct)
	}
	// Position error degrades gracefully: CO-MAP(10) stays within a band
	// between DCF and CO-MAP(0), allowing noise.
	if res.ComapErr.Mean < 0.8*res.DCF.Mean {
		t.Errorf("10 m error collapsed goodput: %.2f vs DCF %.2f",
			res.ComapErr.Mean, res.DCF.Mean)
	}
}

func TestTableI(t *testing.T) {
	rows := TableI()
	if len(rows) < 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	var b strings.Builder
	PrintTableI(&b)
	for _, want := range []string{"6 Mbps", "20 dBm", "95%", "-80 dBm", "3.3", "10 dB"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("Table I output missing %q", want)
		}
	}
}

func TestPrintSeries(t *testing.T) {
	var b strings.Builder
	PrintSeries(&b, "x", Series{Name: "a", Points: []Point{{1, 2}, {3, 4}}},
		Series{Name: "b", Points: []Point{{1, 5}}})
	out := b.String()
	for _, want := range []string{"a", "b", "2.000", "5.000", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Degenerate: no series.
	var empty strings.Builder
	PrintSeries(&empty, "x")
	if !strings.Contains(empty.String(), "x") {
		t.Error("header missing")
	}
}

func TestPrintCDFs(t *testing.T) {
	var b strings.Builder
	PrintCDFs(&b, "Mbps", CDF{Name: "test", Mean: 1.5,
		Points: []stats.CDFPoint{{X: 1, F: 0.5}, {X: 2, F: 1}}})
	if !strings.Contains(b.String(), "test (mean 1.500 Mbps)") {
		t.Errorf("output: %s", b.String())
	}
}

// valueAt returns the Y of the series point with the given X (0 if absent).
func valueAt(s Series, x float64) float64 {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y
		}
	}
	return 0
}

// TestComapRemoteEquivalentInExperiments extends the remote-equivalence
// oracle to the experiments layer: a grid cell run with ComapRemote (no RPC
// faults) must produce exactly the goodput of the in-process run, and the
// knob must leave DCF cells untouched.
func TestComapRemoteEquivalentInExperiments(t *testing.T) {
	top := topology.ETSweep(30)
	o := tinyOpts()

	for _, proto := range []netsim.Protocol{netsim.ProtocolComap, netsim.ProtocolDCF} {
		base := netsim.TestbedOptions()
		base.Protocol = proto
		plain, err := meanGoodput(top, base, o, top.Flows[0])
		if err != nil {
			t.Fatal(err)
		}
		or := o
		or.ComapRemote = true
		remoted, err := meanGoodput(top, base, or, top.Flows[0])
		if err != nil {
			t.Fatal(err)
		}
		if remoted != plain {
			t.Errorf("%v: ComapRemote perturbed the cell: %.3f vs %.3f bps", proto, remoted, plain)
		}
	}
}

func TestTraceDirWritesTracesWithoutPerturbingResults(t *testing.T) {
	top := topology.ETSweep(30)
	base := netsim.TestbedOptions()
	base.Protocol = netsim.ProtocolComap
	o := tinyOpts()

	plain, err := meanGoodput(top, base, o, top.Flows[0])
	if err != nil {
		t.Fatal(err)
	}

	o.TraceDir = filepath.Join(t.TempDir(), "traces")
	traced, err := meanGoodput(top, base, o, top.Flows[0])
	if err != nil {
		t.Fatal(err)
	}
	if traced != plain {
		t.Errorf("tracing perturbed the run: %.3f vs %.3f bps", traced, plain)
	}

	names, err := filepath.Glob(filepath.Join(o.TraceDir, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != o.Seeds {
		t.Fatalf("trace files = %v, want %d", names, o.Seeds)
	}
	want := filepath.Join(o.TraceDir, "et-sweep-30m-co-map-seed0.jsonl")
	if names[0] != want {
		t.Errorf("trace name = %s, want %s", names[0], want)
	}
	st, err := os.Stat(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Error("empty trace file")
	}
}

func TestOptsPresets(t *testing.T) {
	q, f := Quick(), Full()
	if q.Seeds <= 0 || q.Duration <= 0 || q.Topologies <= 0 {
		t.Errorf("Quick = %+v", q)
	}
	if f.Seeds <= q.Seeds || f.Topologies <= q.Topologies {
		t.Errorf("Full should exceed Quick: %+v vs %+v", f, q)
	}
}
