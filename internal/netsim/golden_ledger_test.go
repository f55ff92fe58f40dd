package netsim_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/goldenscn"
	"repro/internal/netsim"
)

func ledgerPath(name string) string {
	return filepath.Join("testdata", "golden_ledger_"+name+".jsonl")
}

// runAudited runs the scenario with a determinism ledger attached (JSONL to
// buf) and returns the ledger plus the report bytes rendered exactly as the
// golden-report suite does.
func runAudited(t *testing.T, sc goldenscn.Scenario, cfg audit.Config, buf *bytes.Buffer) (*audit.Ledger, []byte) {
	t.Helper()
	opts := sc.Opts
	cfg.Sink = buf
	opts.Audit = &netsim.AuditConfig{Scenario: sc.Name, Config: cfg}
	n, err := netsim.Build(sc.Top, opts)
	if err != nil {
		t.Fatalf("%s: build: %v", sc.Name, err)
	}
	if n.Audit == nil {
		t.Fatalf("%s: ledger not attached", sc.Name)
	}
	res := n.Run()
	if err := n.Audit.Err(); err != nil {
		t.Fatalf("%s: ledger write: %v", sc.Name, err)
	}
	netsim.CheckRunInvariants(t, n)
	rep := n.Report(res)
	rep.Engine.WallSec = 0
	rep.Engine.EventsPerSec = 0
	var repBuf bytes.Buffer
	if err := rep.WriteJSON(&repBuf); err != nil {
		t.Fatalf("%s: encode: %v", sc.Name, err)
	}
	return n.Audit, repBuf.Bytes()
}

// TestGoldenLedgers records a determinism ledger for every golden scenario
// and asserts (a) the audited run's report still matches the golden report
// byte for byte — auditing is purely observational — and (b) the ledger is
// semantically equal to the checked-in golden ledger (manifest config keys,
// every slice's chains and deep digests, the end record; environment fields
// like host and go version are excluded, so the fixtures compare across
// machines). Regenerate with:
//
//	go test ./internal/netsim/ -run TestGoldenLedgers -update-golden
func TestGoldenLedgers(t *testing.T) {
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			var buf bytes.Buffer
			ledger, repBytes := runAudited(t, sc, audit.Config{}, &buf)

			if wantRep, err := os.ReadFile(goldenPath(sc.Name)); err == nil {
				if !bytes.Equal(repBytes, wantRep) {
					t.Fatalf("audited run diverged from golden report %s", goldenPath(sc.Name))
				}
			}

			path := ledgerPath(sc.Name)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := audit.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden ledger (run with -update-golden): %v", err)
			}
			got, err := audit.Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("re-read recorded ledger: %v", err)
			}
			if d := audit.Compare(got, want); d != nil {
				t.Fatalf("ledger diverged from golden %s:\n%s", path, d)
			}
			// The in-memory form (what the bisector compares) must agree
			// with the serialized stream.
			if d := audit.Compare(ledger.File(), want); d != nil {
				t.Fatalf("in-memory ledger diverged from serialized form:\n%s", d)
			}
		})
	}
}

// TestLedgerSelfConsistent re-runs one scenario twice and asserts the
// ledgers compare equal — the determinism baseline the injected-nondet test
// below falsifies.
func TestLedgerSelfConsistent(t *testing.T) {
	sc, ok := goldenscn.Get("chh-comap")
	if !ok {
		t.Fatal("chh-comap scenario missing")
	}
	sc.Opts.Duration = 300 * time.Millisecond
	var a, b bytes.Buffer
	la, _ := runAudited(t, sc, audit.Config{}, &a)
	lb, _ := runAudited(t, sc, audit.Config{}, &b)
	if d := audit.Compare(la.File(), lb.File()); d != nil {
		t.Fatalf("two identical runs produced divergent ledgers:\n%s", d)
	}
}

// TestInjectedNondeterminismDiverges validates the test-only injection
// hook: two runs with InjectNondet set must produce ledgers whose TagComap
// chains split (the injected no-op batch order follows Go's randomized map
// iteration), while the runs' reports stay identical to each other.
func TestInjectedNondeterminismDiverges(t *testing.T) {
	sc, ok := goldenscn.Get("chh-comap")
	if !ok {
		t.Fatal("chh-comap scenario missing")
	}
	sc.Opts.Duration = 300 * time.Millisecond
	cfg := audit.Config{InjectNondet: true}
	var diverged *audit.Divergence
	var repA, repB []byte
	// Map iteration order can coincide for a whole short run with small
	// probability; retry a few times before declaring the hook broken.
	for attempt := 0; attempt < 5 && diverged == nil; attempt++ {
		var a, b bytes.Buffer
		la, ra := runAudited(t, sc, cfg, &a)
		lb, rb := runAudited(t, sc, cfg, &b)
		repA, repB = ra, rb
		diverged = audit.Compare(la.File(), lb.File())
	}
	if diverged == nil {
		t.Fatal("injected nondeterminism never produced divergent ledgers")
	}
	if !bytes.Equal(repA, repB) {
		t.Fatal("injected no-op events changed the run's report")
	}
	if diverged.Kind != "slice" {
		t.Fatalf("expected slice divergence, got %q: %s", diverged.Kind, diverged)
	}
	foundComap := false
	for _, tag := range diverged.Tags {
		if tag == "comap" {
			foundComap = true
		}
	}
	if !foundComap {
		t.Fatalf("expected the comap chain to split, got tags %v", diverged.Tags)
	}
}
