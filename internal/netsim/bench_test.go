package netsim_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// benchDuration is the simulated time of one benchmark run.
const benchDuration = time.Second

// BenchmarkAblations runs the 30 m exposed-terminal testbed with CO-MAP's
// discovery header embedded in the data frame (the default), as a separate
// header frame, and with plain DCF, reporting aggregate goodput in Mbps.
func BenchmarkAblations(b *testing.B) {
	for _, ab := range []struct {
		name   string
		mutate func(*netsim.Options)
	}{
		{"HeaderEmbedded", func(*netsim.Options) {}},
		{"HeaderFrame", func(o *netsim.Options) { o.Header = netsim.HeaderFrame }},
		{"DCFBaseline", func(o *netsim.Options) { o.Protocol = netsim.ProtocolDCF }},
	} {
		b.Run(ab.name, func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				opts := netsim.TestbedOptions()
				opts.Protocol = netsim.ProtocolComap
				opts.Seed = 7
				opts.Duration = benchDuration
				ab.mutate(&opts)
				res, err := netsim.RunScenario(topology.ETSweep(30), opts)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					mbps = res.Total() / 1e6
				}
			}
			b.ReportMetric(mbps, "Mbps")
		})
	}
}

// BenchmarkSimulatorSecond builds and runs one simulated second of the
// exposed-terminal testbed under CO-MAP, a fresh seed per iteration, and
// reports the dispatch rate of the first run.
func BenchmarkSimulatorSecond(b *testing.B) {
	var eps float64
	for i := 0; i < b.N; i++ {
		opts := netsim.TestbedOptions()
		opts.Protocol = netsim.ProtocolComap
		opts.Seed = int64(i)
		opts.Duration = benchDuration
		n, err := netsim.Build(topology.ETSweep(30), opts)
		if err != nil {
			b.Fatal(err)
		}
		n.Run()
		if i == 0 {
			eps = n.Progress().EventsPerSec
		}
	}
	b.ReportMetric(eps, "events_per_sec")
}

// BenchmarkCityScale runs the mobility and churn city over the sharded
// channel at 100, 300 and 1000 stations, under DCF and under CO-MAP with
// verdicts served by the control plane (the repository benchmark's city
// options), and reports the dispatch rate and the wall time per data frame
// a destination MAC received. With spatial sharding the cost per event
// tracks the local neighbourhood, so events_per_sec should fall far slower
// than a dense channel's quadratic growth, and ns/delivered_frame should
// grow far slower than N.
func BenchmarkCityScale(b *testing.B) {
	for _, proto := range []struct {
		name   string
		mutate func(*netsim.Options)
	}{
		{"dcf", func(*netsim.Options) {}},
		{"comap", func(o *netsim.Options) {
			o.Protocol = netsim.ProtocolComap
			o.ComapRemote = true
		}},
	} {
		for _, stations := range []int{100, 300, 1000} {
			b.Run(fmt.Sprintf("%s/N=%d", proto.name, stations), func(b *testing.B) {
				top, err := topology.CityScale(topology.DefaultCityConfig(stations, 42))
				if err != nil {
					b.Fatal(err)
				}
				tr := topology.SynthesizeCityTrace(top, rand.New(rand.NewSource(42)), topology.CityTraceConfig{
					Duration: benchDuration,
				})
				b.ResetTimer()
				var eps float64
				var delivered int64
				for i := 0; i < b.N; i++ {
					opts := netsim.CityOptions()
					opts.Seed = 42
					opts.Duration = benchDuration
					proto.mutate(&opts)
					n, err := netsim.Build(top, opts)
					if err != nil {
						b.Fatal(err)
					}
					if err := n.ScheduleLocTrace(tr); err != nil {
						b.Fatal(err)
					}
					n.Run()
					if i == 0 {
						eps = n.Progress().EventsPerSec
					}
					for _, st := range n.Stations {
						delivered += st.MAC.Stats().Get("rx.data")
					}
				}
				b.ReportMetric(eps, "events_per_sec")
				if delivered > 0 {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(delivered), "ns/delivered_frame")
				}
			})
		}
	}
}
