package netsim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/topology"
)

// Test-local aliases keeping table-style tests compact.
type frameID = frame.NodeID

func pt(x, y float64) geom.Point { return geom.Pt(x, y) }

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// CheckRunInvariants asserts what every finished run must satisfy:
//   - each station's "mac" airtime clock partitions the run: its states sum
//     to the run duration exactly, in nanoseconds;
//   - no flow delivered more frames than were sent: a unique delivery needs
//     a frame its source's streams minted for that destination, and at
//     least one data transmission, so the frames delivered over a source's
//     distinct flows cannot exceed its MAC's "tx.data" count either.
//
// The golden-report tests call it after Run.
func CheckRunInvariants(t testing.TB, n *Network) {
	t.Helper()
	for id, st := range n.Stations {
		var sum time.Duration
		for _, d := range st.Metrics.StateClock("mac", n.Eng.Now, "idle").Breakdown() {
			sum += d
		}
		if sum != n.Opts.Duration {
			t.Errorf("station %d: mac airtime states sum to %v, want the run duration %v", id, sum, n.Opts.Duration)
		}
	}
	delivered := make(map[frame.NodeID]int64)
	counted := make(map[topology.Flow]bool)
	for _, f := range n.Top.Flows {
		if counted[f] {
			continue
		}
		counted[f] = true
		d := n.Stations[f.Dst].Peer.DeliveredFrom(f.Src).Frames()
		if minted := n.Stations[f.Src].Peer.MintedTo(f.Dst); d > minted {
			t.Errorf("flow %d->%d: delivered %d frames but its streams minted %d", f.Src, f.Dst, d, minted)
		}
		delivered[f.Src] += d
	}
	for src, d := range delivered {
		if sent := n.Stations[src].MAC.Stats().Get("tx.data"); d > sent {
			t.Errorf("station %d: flows delivered %d frames but it sent %d", src, d, sent)
		}
	}
}
