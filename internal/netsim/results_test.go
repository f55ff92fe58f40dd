package netsim

import (
	"strings"
	"testing"
	"time"

	"repro/internal/topology"
)

func TestSummarize(t *testing.T) {
	top := topology.ETSweep(30)
	opts := TestbedOptions()
	opts.Protocol = ProtocolComap
	opts.InBandLocation = true
	opts.Seed = 2
	opts.Duration = time.Second
	n, err := Build(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := n.Run()
	s := n.Summarize()
	if s.DataTx == 0 {
		t.Fatal("no data transmissions counted")
	}
	if s.ConcurrentTx == 0 {
		t.Error("no concurrency counted in the ET region")
	}
	if s.LocationBeacons == 0 || s.LocationBytes == 0 {
		t.Error("in-band exchange not counted")
	}
	if s.PositionReports == 0 {
		t.Error("no position reports")
	}
	if lr := s.LossRate(); lr < 0 || lr > 1 {
		t.Errorf("loss rate = %v", lr)
	}

	var sb strings.Builder
	s.Print(&sb)
	for _, want := range []string{"data tx", "exposed-terminal", "location exchange", "position reports"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, sb.String())
		}
	}

	var fb strings.Builder
	res.PrintFlows(&fb)
	if !strings.Contains(fb.String(), "total") {
		t.Errorf("flow printout missing total:\n%s", fb.String())
	}
}

func TestLossRateEmptySummary(t *testing.T) {
	var s Summary
	if s.LossRate() != 0 {
		t.Error("empty summary loss rate should be 0")
	}
}
