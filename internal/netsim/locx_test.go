package netsim

import (
	"testing"
	"time"

	"repro/internal/topology"
)

// TestInBandLocationEndToEnd runs CO-MAP where positions are learned from
// over-the-air beacons rather than the oracle registry: the exchange must
// bootstrap fast enough that concurrency still happens, at a small goodput
// cost relative to oracle positions.
func TestInBandLocationEndToEnd(t *testing.T) {
	top := topology.ETSweep(30)

	run := func(inBand bool) (total float64, conc int64, beacons int) {
		opts := TestbedOptions()
		opts.Protocol = ProtocolComap
		opts.Seed = 5
		opts.Duration = 3 * time.Second
		opts.InBandLocation = inBand
		n, err := Build(top, opts)
		if err != nil {
			t.Fatal(err)
		}
		res := n.Run()
		for _, st := range n.Stations {
			conc += st.MAC.Stats().Get("et.concurrent_tx")
			if st.Locx != nil {
				beacons += st.Locx.BeaconsSent()
			}
		}
		return res.Total(), conc, beacons
	}

	oracleTotal, oracleConc, oracleBeacons := run(false)
	if oracleBeacons != 0 {
		t.Fatalf("oracle run sent %d beacons", oracleBeacons)
	}
	if oracleConc == 0 {
		t.Fatal("oracle run produced no concurrency (scenario broken)")
	}

	inbandTotal, inbandConc, inbandBeacons := run(true)
	if inbandBeacons == 0 {
		t.Fatal("in-band run sent no beacons")
	}
	if inbandConc == 0 {
		t.Error("in-band positions never enabled concurrency")
	}
	// The exchange costs some airtime and ramp-up, but must stay close.
	if inbandTotal < 0.7*oracleTotal {
		t.Errorf("in-band goodput %.2f Mbps far below oracle %.2f Mbps",
			inbandTotal/1e6, oracleTotal/1e6)
	}
}

// TestInBandLocationTablesPopulate verifies every CO-MAP station learns the
// whole 4-node neighborhood through the exchange under saturated traffic.
// Cross-cell beacons get through only between the other frames, so the run
// is 10 s: over seeds 1–200 the exchange completes on 198 in 10 s but on
// only 125 in 2 s.
func TestInBandLocationTablesPopulate(t *testing.T) {
	top := topology.ETSweep(28)
	opts := TestbedOptions()
	opts.Protocol = ProtocolComap
	opts.Seed = 2
	opts.Duration = 10 * time.Second
	opts.InBandLocation = true
	n, err := Build(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	for id, st := range n.Stations {
		if st.Locx == nil {
			t.Fatalf("station %d missing locx node", id)
		}
		for _, peer := range top.Nodes {
			if _, ok := st.Locx.Position(peer.ID); !ok {
				t.Errorf("station %d never learned station %d's position", id, peer.ID)
			}
		}
	}
}
