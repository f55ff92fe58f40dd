package experiments

import (
	"testing"
	"time"
)

func TestRTSComparison(t *testing.T) {
	// Ten seeds: bare DCF under three saturated hidden terminals delivers
	// almost nothing, so a median over two seeds is often zero. Over seeds
	// 0–239 the criteria below hold on 82 of 120 two-seed medians and on 24
	// of 24 ten-seed medians.
	res, err := RTSComparison(Opts{Seeds: 10, Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.DCF <= 0 || res.RTSCTS <= 0 || res.Comap <= 0 {
		t.Fatalf("zero goodput somewhere: %+v", res)
	}
	// Both mitigations must beat bare DCF under 3 saturated hidden
	// terminals.
	if res.RTSCTS <= res.DCF {
		t.Errorf("RTS/CTS %.3f did not beat DCF %.3f", res.RTSCTS, res.DCF)
	}
	if res.Comap <= res.DCF {
		t.Errorf("CO-MAP %.3f did not beat DCF %.3f", res.Comap, res.DCF)
	}
}

func TestOverhead(t *testing.T) {
	res, err := Overhead(Opts{Seeds: 1, Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Beacons == 0 || res.BeaconBytes == 0 {
		t.Fatal("no beacons counted")
	}
	// The paper's claim: little communication overhead. The exchange should
	// cost only a small fraction of goodput.
	if res.InBandMbps < 0.7*res.OracleMbps {
		t.Errorf("in-band %.2f Mbps far below oracle %.2f Mbps", res.InBandMbps, res.OracleMbps)
	}
	// And its raw airtime must be tiny versus the data traffic.
	dataBytes := res.OracleMbps * 1e6 / 8 * 2 // rough bytes over the run
	if float64(res.BeaconBytes) > 0.02*dataBytes {
		t.Errorf("beacon bytes %d exceed 2%% of data bytes %.0f", res.BeaconBytes, dataBytes)
	}
}
