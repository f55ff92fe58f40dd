// Package benchscn defines the scenarios behind the repository's
// `go test -bench` targets (bench_test.go): one per table and figure of the
// paper's evaluation, ablations of CO-MAP's design choices, hot-path
// micro-benchmarks, the control-plane ingest load and the city-scale sweep.
// Each scenario prepares once and then exposes a per-iteration body
// returning domain metrics (goodput in Mbps, CO-MAP gain in percent,
// simulator events/s) under the unit-suffixed names the targets report with
// b.ReportMetric. Changes are gated by the repository benchmark in
// perfbench/ (BENCHMARK.json), not by these targets.
package benchscn

import (
	"fmt"
	"time"

	"repro/internal/bianchi"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/phy"
	"repro/internal/topology"
)

// Metrics carries the domain metrics one iteration reports, keyed by
// unit-suffixed name (e.g. "far_Mbps", "gain_pct", "events_per_sec"). A nil
// map is allowed for pure hot-path scenarios.
type Metrics map[string]float64

// The scale every scenario runs at. figOpts scales the figure-regeneration
// scenarios (seeds per point, simulated duration, Fig. 10 topology count);
// etDuration is the simulated time of the single-run scenarios (ablations,
// simulator-second, city sweep) and the load window of mapsvc-ingest.
// Workers is pinned to 1: the targets measure sequential hot-path cost, so
// ns/op and allocs/op do not depend on the host's core count (the parallel
// runner's scaling is validated separately).
var figOpts = experiments.Opts{Seeds: 1, Duration: 500 * time.Millisecond, Topologies: 2, Workers: 1}

const etDuration = time.Second

// Scenario is one named benchmark target.
type Scenario struct {
	// Name identifies the scenario to Lookup.
	Name string
	// Prepare builds per-scenario state once and returns the measured
	// per-iteration body.
	Prepare func() (func() (Metrics, error), error)
}

// ablation runs the 30 m exposed-terminal testbed with CO-MAP, altered by
// mutate, and reports aggregate goodput in Mbps.
func ablation(mutate func(*netsim.Options)) func() (func() (Metrics, error), error) {
	return func() (func() (Metrics, error), error) {
		return func() (Metrics, error) {
			opts := netsim.TestbedOptions()
			opts.Protocol = netsim.ProtocolComap
			opts.Seed = 7
			opts.Duration = etDuration
			if mutate != nil {
				mutate(&opts)
			}
			res, err := netsim.RunScenario(topology.ETSweep(30), opts)
			if err != nil {
				return nil, err
			}
			return Metrics{"Mbps": res.Total() / 1e6}, nil
		}, nil
	}
}

// scenarios returns the canonical list: figures first, then the hot-path and
// ablation targets, then the city-scale sweep, in stable order.
func scenarios() []Scenario {
	return []Scenario{
		{
			Name: "fig1-exposed-terminal-sweep",
			Prepare: func() (func() (Metrics, error), error) {
				return func() (Metrics, error) {
					res, err := experiments.Fig1(figOpts)
					if err != nil {
						return nil, err
					}
					return Metrics{"far_Mbps": res.C1Goodput.Points[len(res.C1Goodput.Points)-1].Y}, nil
				}, nil
			},
		},
		{
			Name: "fig2-hidden-terminal-payload",
			Prepare: func() (func() (Metrics, error), error) {
				return func() (Metrics, error) {
					res, err := experiments.Fig2(figOpts)
					if err != nil {
						return nil, err
					}
					last := len(res.NoHT.Points) - 1
					return Metrics{
						"noHT_Mbps":  res.NoHT.Points[last].Y,
						"oneHT_Mbps": res.OneHT.Points[last].Y,
					}, nil
				}, nil
			},
		},
		{
			Name: "fig7-model-validation",
			Prepare: func() (func() (Metrics, error), error) {
				return func() (Metrics, error) {
					panels, err := experiments.Fig7(figOpts)
					if err != nil {
						return nil, err
					}
					m := panels[0].Model[0].Points
					s := panels[0].Sim[0].Points
					return Metrics{
						"model_Mbps": m[len(m)-1].Y,
						"sim_Mbps":   s[len(s)-1].Y,
					}, nil
				}, nil
			},
		},
		{
			Name: "fig8-comap-exposed-terminal",
			Prepare: func() (func() (Metrics, error), error) {
				return func() (Metrics, error) {
					res, err := experiments.Fig8(figOpts)
					if err != nil {
						return nil, err
					}
					return Metrics{"gain_pct": res.ETRegionGainPct}, nil
				}, nil
			},
		},
		{
			Name: "fig9-comap-hidden-terminal",
			Prepare: func() (func() (Metrics, error), error) {
				return func() (Metrics, error) {
					res, err := experiments.Fig9(figOpts)
					if err != nil {
						return nil, err
					}
					return Metrics{"gain_pct": res.MeanGainPct}, nil
				}, nil
			},
		},
		{
			Name: "fig10-large-scale",
			Prepare: func() (func() (Metrics, error), error) {
				return func() (Metrics, error) {
					res, err := experiments.Fig10(figOpts)
					if err != nil {
						return nil, err
					}
					return Metrics{
						"gain_pct":     res.GainPerfectPct,
						"gain_err_pct": res.GainErrorPct,
					}, nil
				}, nil
			},
		},
		{
			Name: "table1-adaptation-table",
			Prepare: func() (func() (Metrics, error), error) {
				base := bianchi.FromPHY(phy.NS2Table1(), phy.RateOFDM6)
				return func() (Metrics, error) {
					tbl := bianchi.NewAdaptationTable(base, 5, 8, nil, nil)
					if tbl.Lookup(3, 5).GoodputBps <= 0 {
						return nil, fmt.Errorf("empty adaptation-table entry")
					}
					return nil, nil
				}, nil
			},
		},
		{
			Name:    "ablation-header-embedded",
			Prepare: ablation(nil),
		},
		{
			Name:    "ablation-header-frame",
			Prepare: ablation(func(o *netsim.Options) { o.Header = netsim.HeaderFrame }),
		},
		{
			Name:    "ablation-dcf-baseline",
			Prepare: ablation(func(o *netsim.Options) { o.Protocol = netsim.ProtocolDCF }),
		},
		mapsvcIngest(),
		{
			Name: "bianchi-goodput",
			Prepare: func() (func() (Metrics, error), error) {
				p := bianchi.FromPHY(phy.NS2Table1(), phy.RateOFDM6)
				p.W = 255
				p.Contenders = 5
				p.Hidden = 3
				return func() (Metrics, error) {
					if p.Goodput(1000) <= 0 {
						return nil, fmt.Errorf("zero goodput")
					}
					return nil, nil
				}, nil
			},
		},
		{
			Name: "simulator-second",
			Prepare: func() (func() (Metrics, error), error) {
				seed := int64(0)
				return func() (Metrics, error) {
					opts := netsim.TestbedOptions()
					opts.Protocol = netsim.ProtocolComap
					opts.Seed = seed
					opts.Duration = etDuration
					seed++
					n, err := netsim.Build(topology.ETSweep(30), opts)
					if err != nil {
						return nil, err
					}
					n.Run()
					p := n.Progress()
					return Metrics{"events_per_sec": p.EventsPerSec}, nil
				}, nil
			},
		},
		cityScenario(100),
		cityScenario(300),
		cityScenario(1000),
	}
}

// Lookup returns the scenario with the given name.
func Lookup(name string) (Scenario, bool) {
	for _, s := range scenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}
