package netsim_test

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/goldenscn"
	"repro/internal/netsim"
	"repro/internal/prof"
	"repro/internal/trace"
)

// updateGolden regenerates the checked-in pre-optimization reports:
//
//	go test ./internal/netsim/ -run TestGoldenReports -update-golden
//
// The fixtures pin the engine's observable behavior: any hot-path
// optimization (event free-list, dense channel state, audibility pruning,
// parallel replication) must reproduce these reports byte for byte.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden run reports")

// goldenScenarios returns the fixed (topology, options) runs whose full
// reports are pinned. The list lives in internal/goldenscn so the
// determinism-audit tooling (cmd/comap-audit verify/bisect) re-runs the
// exact same scenarios by name.
func goldenScenarios() []goldenscn.Scenario {
	return goldenscn.All()
}

// reportBytes runs the scenario and renders its report with the wall-clock
// self-profiling fields zeroed (they are the only non-deterministic fields).
func reportBytes(t *testing.T, sc goldenscn.Scenario) []byte {
	t.Helper()
	n, err := netsim.Build(sc.Top, sc.Opts)
	if err != nil {
		t.Fatalf("%s: build: %v", sc.Name, err)
	}
	res := n.Run()
	netsim.CheckRunInvariants(t, n)
	rep := n.Report(res)
	rep.Engine.WallSec = 0
	rep.Engine.EventsPerSec = 0
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("%s: encode: %v", sc.Name, err)
	}
	return buf.Bytes()
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden_report_"+name+".json")
}

// TestGoldenReports asserts that every fixture scenario reproduces its
// checked-in pre-optimization report byte for byte.
func TestGoldenReports(t *testing.T) {
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			got := reportBytes(t, sc)
			path := goldenPath(sc.Name)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("report diverged from pre-optimization golden %s\n"+
					"got %d bytes, want %d bytes; regenerate only if the divergence is intended",
					path, len(got), len(want))
			}
		})
	}
}

// TestGoldenReportsProfiled re-runs every fixture scenario with the
// attribution profiler and flight recorder attached, scraping the
// attribution from another goroutine mid-run, and asserts the report still
// matches the same golden byte for byte: profiling must never touch RNG
// streams or event order.
func TestGoldenReportsProfiled(t *testing.T) {
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(sc.Name))
			if err != nil {
				t.Skipf("missing golden (run TestGoldenReports -update-golden first): %v", err)
			}
			opts := sc.Opts
			opts.Profile = &prof.Config{SampleEvery: 8, Dir: t.TempDir()}
			n, err := netsim.Build(sc.Top, opts)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if n.Prof == nil {
				t.Fatal("profiler not attached")
			}
			// Scrape the attribution and flight ring concurrently, as the
			// /profile and /flight endpoints do.
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
						_ = n.Prof.Attribution()
						if f := n.Prof.Flight(); f != nil {
							_ = f.Snapshot()
						}
					}
				}
			}()
			res := n.Run()
			close(stop)
			<-done
			netsim.CheckRunInvariants(t, n)
			rep := n.Report(res)
			rep.Engine.WallSec = 0
			rep.Engine.EventsPerSec = 0
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf); err != nil {
				t.Fatalf("encode: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("profiled run diverged from golden %s", goldenPath(sc.Name))
			}
			a := n.Prof.Attribution()
			if a.Events == 0 {
				t.Fatal("profiler observed no events")
			}
			var tagged uint64
			for _, ts := range a.Tags {
				if ts.Tag != "other" {
					tagged += ts.Events
				}
			}
			if tagged == 0 {
				t.Fatal("no events attributed to any subsystem tag")
			}
		})
	}
}

// TestGoldenReportsTraced re-runs every fixture scenario with a JSONL trace
// attached (written to io.Discard) and with live progress scrapes during the
// run, and asserts the report still matches the same golden: tracing and
// observability must not perturb the engine.
func TestGoldenReportsTraced(t *testing.T) {
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(sc.Name))
			if err != nil {
				t.Skipf("missing golden (run TestGoldenReports -update-golden first): %v", err)
			}
			opts := sc.Opts
			opts.Trace = trace.NewWriter(io.Discard)
			n, err := netsim.Build(sc.Top, opts)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			// Scrape like the obs plane does, from another goroutine.
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
						_ = n.Progress()
						_ = n.HealthStatus()
					}
				}
			}()
			res := n.Run()
			close(stop)
			<-done
			netsim.CheckRunInvariants(t, n)
			rep := n.Report(res)
			rep.Engine.WallSec = 0
			rep.Engine.EventsPerSec = 0
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf); err != nil {
				t.Fatalf("encode: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("traced+scraped run diverged from golden %s", goldenPath(sc.Name))
			}
		})
	}
}
