package netsim_test

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/bianchi"
	"repro/internal/netsim"
	"repro/internal/phy"
	"repro/internal/topology"
)

// raceEnabled is set by race_test.go in -race builds, whose instrumentation
// allocates on its own.
var raceEnabled bool

// TestSteadyStateAllocations pins the dispatch loop's steady state as
// allocation-free: a warmed Fig. 10 office floor (CO-MAP, 3 Mbps CBR flows,
// the CW adaptation grid and 10 m position error, as the office benchmark
// runs it) may make at most 0.05 heap allocations per dispatched event.
// What remains is growth that levels off (first-seen map keys, queues
// reaching their peak), not per-event work.
func TestSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const seed = 101
	opts := netsim.NS2Options()
	opts.Protocol = netsim.ProtocolComap
	opts.CBRBitsPerSec = 3e6
	base := bianchi.FromPHY(phy.NS2Table1(), phy.RateOFDM6)
	opts.AdaptTable = bianchi.NewAdaptationTable(base, 5, 8, []int{15, 31, 63, 127, 255}, nil)
	opts.ComapModel.HTImpactPRR = 0.5
	opts.PositionErrorMeters = 10
	opts.Seed = seed
	opts.Duration = 2 * time.Second
	n, err := netsim.Build(topology.LargeScale(rand.New(rand.NewSource(seed))), opts)
	if err != nil {
		t.Fatal(err)
	}
	n.Eng.RunUntil(500 * time.Millisecond)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events0 := n.Eng.EventsFired()
	n.Eng.RunUntil(opts.Duration)
	runtime.ReadMemStats(&after)
	events := n.Eng.EventsFired() - events0

	perEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
	t.Logf("%d mallocs over %d events (%.3f per event)", after.Mallocs-before.Mallocs, events, perEvent)
	if perEvent > 0.05 {
		t.Errorf("%.3f heap allocations per dispatched event in steady state, want <= 0.05", perEvent)
	}
	netsim.CheckRunInvariants(t, n)
}
