// Benchmarks: one target per table/figure of the paper's evaluation, plus
// ablations of CO-MAP's design choices and micro-benchmarks of the hot
// paths, for measuring while working. The per-iteration bodies live in
// internal/benchscn; each figure bench runs a scaled-down version of the
// corresponding experiment (cmd/comap-experiments regenerates the full data)
// and reports domain metrics (goodput, gain) alongside ns/op. The benchmark
// that gates changes is perfbench/ (BENCHMARK.json), compared parent against
// change by scripts/bench-pairs.sh.
package main

import (
	"sort"
	"testing"

	"repro/internal/benchscn"
)

// benchScenario runs the named benchscn scenario and reports its domain
// metrics from the first iteration.
func benchScenario(b *testing.B, name string) {
	b.Helper()
	scn, ok := benchscn.Lookup(name)
	if !ok {
		b.Fatalf("unknown bench scenario %q", name)
	}
	run, err := scn.Prepare()
	if err != nil {
		b.Fatal(err)
	}
	var first benchscn.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			first = m
		}
	}
	b.StopTimer()
	keys := make([]string, 0, len(first))
	for k := range first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.ReportMetric(first[k], k)
	}
}

func BenchmarkFig1ExposedTerminalSweep(b *testing.B) {
	benchScenario(b, "fig1-exposed-terminal-sweep")
}

func BenchmarkFig2HiddenTerminalPayload(b *testing.B) {
	benchScenario(b, "fig2-hidden-terminal-payload")
}

func BenchmarkFig7ModelValidation(b *testing.B) {
	benchScenario(b, "fig7-model-validation")
}

func BenchmarkFig8ComapExposedTerminal(b *testing.B) {
	benchScenario(b, "fig8-comap-exposed-terminal")
}

func BenchmarkFig9ComapHiddenTerminal(b *testing.B) {
	benchScenario(b, "fig9-comap-hidden-terminal")
}

func BenchmarkFig10LargeScale(b *testing.B) {
	benchScenario(b, "fig10-large-scale")
}

func BenchmarkTableIAdaptationTable(b *testing.B) {
	benchScenario(b, "table1-adaptation-table")
}

// --- ablations of CO-MAP design choices (see DESIGN.md) -------------------

func BenchmarkAblationHeaderEmbedded(b *testing.B) {
	benchScenario(b, "ablation-header-embedded")
}

func BenchmarkAblationHeaderFrame(b *testing.B) {
	benchScenario(b, "ablation-header-frame")
}

func BenchmarkAblationDCFBaseline(b *testing.B) {
	benchScenario(b, "ablation-dcf-baseline")
}

// --- micro-benchmarks of the hot paths ------------------------------------

func BenchmarkBianchiGoodput(b *testing.B) {
	benchScenario(b, "bianchi-goodput")
}

func BenchmarkSimulatorSecond(b *testing.B) {
	benchScenario(b, "simulator-second")
}

// --- control-plane service load -------------------------------------------

func BenchmarkMapsvcIngest(b *testing.B) {
	benchScenario(b, "mapsvc-ingest")
}

// --- city-scale sharded channel -------------------------------------------
// events_per_sec across the three station counts is the scaling evidence for
// the spatial-cell shard: near-flat per-event cost instead of the dense
// model's quadratic growth.

func BenchmarkCityScaleN100(b *testing.B) {
	benchScenario(b, "cityscale-n100")
}

func BenchmarkCityScaleN300(b *testing.B) {
	benchScenario(b, "cityscale-n300")
}

func BenchmarkCityScaleN1000(b *testing.B) {
	benchScenario(b, "cityscale-n1000")
}
