package netsim_test

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/audit"
	"repro/internal/goldenscn"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// remoteScenarios returns the golden scenarios that can route verdicts
// through the mapsvc control plane: every CO-MAP scenario (DCF has no
// agent, so there is nothing to remote).
func remoteScenarios() []goldenscn.Scenario {
	var out []goldenscn.Scenario
	for _, sc := range goldenScenarios() {
		if sc.Opts.Protocol == netsim.ProtocolComap {
			out = append(out, sc)
		}
	}
	return out
}

// TestGoldenReportsRemote is the control-plane equivalence oracle: routing
// every verdict miss through the mapsvc service over the deterministic
// transport — with a zero RPC-fault spec — must reproduce the in-process
// golden report byte for byte. Every call completes inline on the sim
// clock, so the remote stack adds no events and draws no RNG.
func TestGoldenReportsRemote(t *testing.T) {
	for _, sc := range remoteScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(sc.Name))
			if err != nil {
				t.Skipf("missing golden (run TestGoldenReports -update-golden first): %v", err)
			}
			opts := sc.Opts
			opts.ComapRemote = true
			n, err := netsim.Build(sc.Top, opts)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if n.MapClient == nil || n.MapService == nil {
				t.Fatal("remote control-plane stack not attached")
			}
			res := n.Run()
			netsim.CheckRunInvariants(t, n)
			rep := n.Report(res)
			rep.Engine.WallSec = 0
			rep.Engine.EventsPerSec = 0
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf); err != nil {
				t.Fatalf("encode: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("remote run diverged from golden %s: the zero-fault "+
					"control plane must be observationally identical to in-process CO-MAP",
					goldenPath(sc.Name))
			}
			// Sanity: the remote path was actually exercised, not bypassed.
			svc := n.MapService.Status()
			cli := n.MapClient.Status()
			if svc.Ingested == 0 {
				t.Error("service ingested no fixes — registry commit hook not wired")
			}
			if cli.Calls == 0 {
				t.Error("client made no verdict calls — agent misses not routed remotely")
			}
			if cli.Failures != 0 || cli.Timeouts != 0 || cli.Retries != 0 {
				t.Errorf("zero-fault remote run recorded failures=%d timeouts=%d retries=%d",
					cli.Failures, cli.Timeouts, cli.Retries)
			}
			if cli.RungDecisions["fresh"] == 0 || cli.RungDecisions["stale"]+cli.RungDecisions["coarse"]+cli.RungDecisions["dcf"] != 0 {
				t.Errorf("zero-fault remote run left the fresh rung: %v", cli.RungDecisions)
			}
		})
	}
}

// TestGoldenLedgersRemote extends the equivalence oracle to the audit
// plane: an audited remote run must produce a ledger semantically equal to
// the checked-in in-process golden ledger (same manifest fingerprint, same
// per-slice chains, same deep digests) AND still match the golden report.
func TestGoldenLedgersRemote(t *testing.T) {
	for _, sc := range remoteScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			want, err := audit.ReadFile(ledgerPath(sc.Name))
			if err != nil {
				t.Skipf("missing golden ledger (run TestGoldenLedgers -update-golden first): %v", err)
			}
			sc.Opts.ComapRemote = true
			var buf bytes.Buffer
			ledger, repBytes := runAudited(t, sc, audit.Config{}, &buf)
			if wantRep, err := os.ReadFile(goldenPath(sc.Name)); err == nil {
				if !bytes.Equal(repBytes, wantRep) {
					t.Fatalf("audited remote run diverged from golden report %s", goldenPath(sc.Name))
				}
			}
			if d := audit.Compare(ledger.File(), want); d != nil {
				t.Fatalf("remote ledger diverged from in-process golden %s:\n%s", ledgerPath(sc.Name), d)
			}
		})
	}
}

// TestGoldenReportsRemoteTraced re-runs the remote scenarios with a trace
// attached and live health scrapes (which snapshot the control-plane client
// and service from another goroutine mid-run), asserting the report still
// matches the golden: control-plane observability must not perturb the run,
// and a zero-fault run must emit no ladder-transition events.
func TestGoldenReportsRemoteTraced(t *testing.T) {
	for _, sc := range remoteScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(sc.Name))
			if err != nil {
				t.Skipf("missing golden (run TestGoldenReports -update-golden first): %v", err)
			}
			opts := sc.Opts
			opts.ComapRemote = true
			var tbuf trace.Buffer
			opts.Trace = &tbuf
			n, err := netsim.Build(sc.Top, opts)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
						_ = n.HealthStatus()
					}
				}
			}()
			res := n.Run()
			close(stop)
			<-done
			rep := n.Report(res)
			rep.Engine.WallSec = 0
			rep.Engine.EventsPerSec = 0
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf); err != nil {
				t.Fatalf("encode: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("traced+scraped remote run diverged from golden %s", goldenPath(sc.Name))
			}
			for _, e := range tbuf.Events {
				if e.Kind == trace.KindCoLadder {
					t.Fatalf("zero-fault remote run emitted ladder transition %q", e.Reason)
				}
			}
			hs := n.HealthStatus()
			if hs.ControlPlane == nil {
				t.Fatal("health status missing control_plane block on a remote run")
			}
		})
	}
}
