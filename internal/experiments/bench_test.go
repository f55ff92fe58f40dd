package experiments

import (
	"testing"
	"time"
)

// figOpts scales the figure benchmarks down: one seed per point, half a
// simulated second per run, two Fig. 10 topologies. Workers is pinned to 1
// so ns/op and allocs/op measure sequential cost whatever the host's core
// count.
var figOpts = Opts{Seeds: 1, Duration: 500 * time.Millisecond, Topologies: 2, Workers: 1}

// BenchmarkFigures regenerates each figure of the paper's evaluation at
// figOpts scale and reports, from the first iteration, the quantity the
// figure is about: goodput in Mbps or CO-MAP's gain in percent.
func BenchmarkFigures(b *testing.B) {
	for _, fig := range []struct {
		name string
		run  func() (map[string]float64, error)
	}{
		{"Fig1ExposedTerminalSweep", func() (map[string]float64, error) {
			res, err := Fig1(figOpts)
			if err != nil {
				return nil, err
			}
			pts := res.C1Goodput.Points
			return map[string]float64{"far_Mbps": pts[len(pts)-1].Y}, nil
		}},
		{"Fig2HiddenTerminalPayload", func() (map[string]float64, error) {
			res, err := Fig2(figOpts)
			if err != nil {
				return nil, err
			}
			last := len(res.NoHT.Points) - 1
			return map[string]float64{
				"noHT_Mbps":  res.NoHT.Points[last].Y,
				"oneHT_Mbps": res.OneHT.Points[last].Y,
			}, nil
		}},
		{"Fig7ModelValidation", func() (map[string]float64, error) {
			panels, err := Fig7(figOpts)
			if err != nil {
				return nil, err
			}
			m, s := panels[0].Model[0].Points, panels[0].Sim[0].Points
			return map[string]float64{
				"model_Mbps": m[len(m)-1].Y,
				"sim_Mbps":   s[len(s)-1].Y,
			}, nil
		}},
		{"Fig8ComapExposedTerminal", func() (map[string]float64, error) {
			res, err := Fig8(figOpts)
			if err != nil {
				return nil, err
			}
			return map[string]float64{"gain_pct": res.ETRegionGainPct}, nil
		}},
		{"Fig9ComapHiddenTerminal", func() (map[string]float64, error) {
			res, err := Fig9(figOpts)
			if err != nil {
				return nil, err
			}
			return map[string]float64{"gain_pct": res.MeanGainPct}, nil
		}},
		{"Fig10LargeScale", func() (map[string]float64, error) {
			res, err := Fig10(figOpts)
			if err != nil {
				return nil, err
			}
			return map[string]float64{
				"gain_pct":     res.GainPerfectPct,
				"gain_err_pct": res.GainErrorPct,
			}, nil
		}},
	} {
		b.Run(fig.name, func(b *testing.B) {
			var first map[string]float64
			for i := 0; i < b.N; i++ {
				m, err := fig.run()
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					first = m
				}
			}
			for unit, v := range first {
				b.ReportMetric(v, unit)
			}
		})
	}
}
