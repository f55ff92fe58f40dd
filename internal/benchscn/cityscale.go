package benchscn

import (
	"fmt"
	"math/rand"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// cityScenario builds the city-scale benchmark at the given station count:
// a trace-driven mobility+churn run over the sharded channel, reporting the
// dispatch rate (events/s). Comparing events_per_sec across n = 100 / 300 /
// 1000 exposes the channel's scaling: with spatial sharding the per-event
// cost tracks the local neighborhood size, so the rate should fall far
// slower than the quadratic dense model would predict.
func cityScenario(n int) Scenario {
	return Scenario{
		Name: fmt.Sprintf("cityscale-n%d", n),
		Prepare: func() (func() (Metrics, error), error) {
			top, err := topology.CityScale(topology.DefaultCityConfig(n, 42))
			if err != nil {
				return nil, err
			}
			tr := topology.SynthesizeCityTrace(top, rand.New(rand.NewSource(42)), topology.CityTraceConfig{
				Duration: etDuration,
			})
			return func() (Metrics, error) {
				opts := netsim.CityOptions()
				opts.Seed = 42
				opts.Duration = etDuration
				net, err := netsim.Build(top, opts)
				if err != nil {
					return nil, err
				}
				if err := net.ScheduleLocTrace(tr); err != nil {
					return nil, err
				}
				net.Run()
				p := net.Progress()
				return Metrics{"events_per_sec": p.EventsPerSec}, nil
			}, nil
		},
	}
}
