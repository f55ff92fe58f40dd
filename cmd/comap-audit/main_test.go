package main

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

// runCmd invokes run() and returns output plus the exit code it would
// produce (0 ok, 2 divergence). Operational errors fail the test.
func runCmd(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	if err == nil {
		return buf.String(), 0
	}
	var code exitCodeError
	if errors.As(err, &code) {
		return buf.String(), int(code)
	}
	t.Fatalf("run(%v): %v\noutput:\n%s", args, err, buf.String())
	return "", 0
}

func goldenLedger(name string) string {
	return filepath.Join("..", "..", "internal", "netsim", "testdata", "golden_ledger_"+name+".jsonl")
}

func TestListNamesAllScenarios(t *testing.T) {
	out, code := runCmd(t, "list")
	if code != 0 {
		t.Fatalf("list exit code %d", code)
	}
	for _, name := range []string{"chh-dcf", "chh-comap", "chh-comap-faulted", "et30-comap",
		"chh-dcf-cbr-churn", "chh-comap-cbr-churn"} {
		if !strings.Contains(out, name) {
			t.Errorf("list output missing %s:\n%s", name, out)
		}
	}
}

// TestVerifyGoldenLedgers re-runs every checked-in golden ledger's scenario
// through the CLI and expects semantic equality — the same gate CI's
// ledger-equivalence job applies.
func TestVerifyGoldenLedgers(t *testing.T) {
	for _, name := range []string{"chh-dcf", "chh-comap", "chh-comap-faulted", "et30-comap",
		"chh-dcf-cbr-churn", "chh-comap-cbr-churn"} {
		name := name
		t.Run(name, func(t *testing.T) {
			out, code := runCmd(t, "verify", goldenLedger(name))
			if code != 0 {
				t.Fatalf("verify exit code %d:\n%s", code, out)
			}
			if !strings.Contains(out, "verify OK") {
				t.Fatalf("unexpected verify output:\n%s", out)
			}
		})
	}
}

func TestRecordAndCompareEqual(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	if out, code := runCmd(t, "record", "-scenario", "chh-dcf", "-duration", "200ms", "-o", a); code != 0 {
		t.Fatalf("record a exit %d:\n%s", code, out)
	}
	if out, code := runCmd(t, "record", "-scenario", "chh-dcf", "-duration", "200ms", "-o", b); code != 0 {
		t.Fatalf("record b exit %d:\n%s", code, out)
	}
	out, code := runCmd(t, "compare", a, b)
	if code != 0 {
		t.Fatalf("identical runs compared unequal (exit %d):\n%s", code, out)
	}
	if !strings.Contains(out, "ledgers equal") {
		t.Fatalf("unexpected compare output:\n%s", out)
	}
}

func TestCompareFlagsSeedMismatch(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	runCmd(t, "record", "-scenario", "chh-dcf", "-duration", "200ms", "-o", a)
	runCmd(t, "record", "-scenario", "chh-dcf", "-duration", "200ms", "-seed", "99", "-o", b)
	out, code := runCmd(t, "compare", a, b)
	if code != 2 {
		t.Fatalf("seed-mismatched ledgers compared with exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "seed") {
		t.Fatalf("divergence report does not name the seed mismatch:\n%s", out)
	}
}

// TestBisectNamesInjectedNondeterminism is the acceptance test for the
// bisector: against a deliberately injected map-iteration nondeterminism
// (the test-only InjectNondet hook), bisect must exit 2 and name the first
// divergent event's subsystem tag and sim-time.
func TestBisectNamesInjectedNondeterminism(t *testing.T) {
	out, code := runCmd(t, "bisect",
		"-scenario", "chh-comap", "-duration", "300ms", "-inject-nondet", "-attempts", "6")
	if code != 2 {
		t.Fatalf("bisect against injected nondeterminism exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "tag=comap") {
		t.Fatalf("bisect did not name the comap subsystem tag:\n%s", out)
	}
	if !strings.Contains(out, "sim-time=") {
		t.Fatalf("bisect did not name the divergent event's sim-time:\n%s", out)
	}
	if !strings.Contains(out, "first divergent event") {
		t.Fatalf("bisect did not localize to an event:\n%s", out)
	}
}

// TestBisectCleanScenarioExitsZero asserts the bisector reports a healthy
// deterministic scenario as such.
func TestBisectCleanScenarioExitsZero(t *testing.T) {
	out, code := runCmd(t, "bisect", "-scenario", "chh-dcf", "-duration", "200ms", "-attempts", "2")
	if code != 0 {
		t.Fatalf("clean scenario bisect exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "no divergence") {
		t.Fatalf("unexpected bisect output:\n%s", out)
	}
}
