package netsim

import (
	"testing"
	"time"

	"repro/internal/topology"
)

// TestHeaderFrameModeEndToEnd: the testbed header variant (separate frame)
// must also produce concurrency, at a measurable airtime cost.
func TestHeaderFrameModeEndToEnd(t *testing.T) {
	top := topology.ETSweep(30)
	run := func(mode HeaderMode) (total float64, headers, conc int64) {
		opts := TestbedOptions()
		opts.Protocol = ProtocolComap
		opts.Header = mode
		opts.Seed = 6
		opts.Duration = 2 * time.Second
		n, err := Build(top, opts)
		if err != nil {
			t.Fatal(err)
		}
		res := n.Run()
		for _, st := range n.Stations {
			headers += st.MAC.Stats().Get("tx.header")
			conc += st.MAC.Stats().Get("et.concurrent_tx")
		}
		return res.Total(), headers, conc
	}

	embTotal, embHeaders, embConc := run(HeaderEmbedded)
	if embHeaders != 0 {
		t.Errorf("embedded mode sent %d separate header frames", embHeaders)
	}
	if embConc == 0 {
		t.Error("embedded mode: no concurrency")
	}

	frmTotal, frmHeaders, frmConc := run(HeaderFrame)
	if frmHeaders == 0 {
		t.Error("frame mode sent no header frames")
	}
	if frmConc == 0 {
		t.Error("frame mode: no concurrency")
	}
	// The separate header frame costs airtime; embedded should not lose.
	if embTotal < frmTotal*0.95 {
		t.Errorf("embedded %.2f Mbps unexpectedly below frame mode %.2f Mbps",
			embTotal/1e6, frmTotal/1e6)
	}
}

// TestRTSOptionEndToEnd: the RTS/CTS baseline runs through the netsim stack
// and mitigates a hidden-terminal topology relative to bare DCF.
func TestRTSOptionEndToEnd(t *testing.T) {
	top := topology.HTRoles([]topology.Role{topology.RoleHidden, topology.RoleHidden})
	flow := top.Flows[0]
	run := func(rts int) float64 {
		opts := NS2Options()
		opts.Protocol = ProtocolDCF
		opts.RTSThresholdBytes = rts
		opts.Seed = 8
		opts.Duration = 3 * time.Second
		res, err := RunScenario(top, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Goodput(flow)
	}
	bare := run(0)
	withRTS := run(1)
	if withRTS <= bare {
		t.Errorf("RTS/CTS %.3f Mbps did not beat bare DCF %.3f Mbps under hidden terminals",
			withRTS/1e6, bare/1e6)
	}
}

// TestDisablePersistentConcurrency: the ablation knob suppresses the CS
// bypass, so the run departs from the default one, but leaves chained
// concurrency working.
func TestDisablePersistentConcurrency(t *testing.T) {
	run := func(disable bool) (conc, data int64) {
		opts := TestbedOptions()
		opts.Protocol = ProtocolComap
		opts.DisablePersistentConcurrency = disable
		opts.Seed = 9
		opts.Duration = 2 * time.Second
		n, err := Build(topology.ETSweep(30), opts)
		if err != nil {
			t.Fatal(err)
		}
		n.Run()
		for _, st := range n.Stations {
			conc += st.MAC.Stats().Get("et.concurrent_tx")
			data += st.MAC.Stats().Get("tx.data")
		}
		return conc, data
	}
	conc, data := run(true)
	if conc == 0 {
		t.Error("chained concurrency should still work")
	}
	if defConc, defData := run(false); conc == defConc && data == defData {
		t.Errorf("ablation changed nothing: %d concurrent / %d data frames either way", conc, data)
	}
}
