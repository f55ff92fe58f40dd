package netsim_test

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/audit"
	"repro/internal/goldenscn"
	"repro/internal/netsim"
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
