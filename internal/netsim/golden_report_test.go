package netsim_test

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/goldenscn"
	"repro/internal/netsim"
	"repro/internal/obs"
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

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden_report_"+name+".json")
}

// attachment is one way of observing a golden run. Every attachment must
// leave the report byte-identical to the checked-in golden.
type attachment struct {
	name string
	// comapOnly restricts the row to CO-MAP scenarios (DCF has no agent,
	// so there is no verdict to route through the control plane).
	comapOnly bool
	// opts sets the row's observers on the scenario's options before Build.
	opts func(t *testing.T, o *netsim.Options)
	// attach runs after Build: it checks what the row attached and returns
	// one scrape pass, repeated from another goroutine throughout Run, or
	// nil for no scrapes.
	attach func(t *testing.T, n *netsim.Network) func()
	// check runs after Run.
	check func(t *testing.T, n *netsim.Network)
}

// attachments lists the observed-run rows of the TestGoldenReports* tests.
func attachments() []attachment {
	return []attachment{
		{name: "plain"},
		{
			// A JSONL trace plus the live progress and health scrapes the
			// obs plane makes.
			name: "traced",
			opts: func(_ *testing.T, o *netsim.Options) { o.Trace = trace.NewWriter(io.Discard) },
			attach: func(_ *testing.T, n *netsim.Network) func() {
				return func() {
					_ = n.Progress()
					_ = n.HealthStatus()
				}
			},
		},
		{
			// The attribution profiler and flight recorder, scraped as the
			// /profile and /flight endpoints do: profiling must never touch
			// RNG streams or event order.
			name: "profiled",
			opts: func(t *testing.T, o *netsim.Options) {
				o.Profile = &prof.Config{SampleEvery: 8, Dir: t.TempDir()}
			},
			attach: func(t *testing.T, n *netsim.Network) func() {
				if n.Prof == nil {
					t.Fatal("profiler not attached")
				}
				return func() {
					_ = n.Prof.Attribution()
					if f := n.Prof.Flight(); f != nil {
						_ = f.Snapshot()
					}
				}
			},
			check: func(t *testing.T, n *netsim.Network) {
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
			},
		},
		{
			// The control-plane equivalence oracle: every verdict miss goes
			// through the mapsvc service over the deterministic transport
			// with no RPC faults, so each call completes inline on the sim
			// clock, adding no events and drawing no RNG.
			name:      "remote",
			comapOnly: true,
			opts:      func(_ *testing.T, o *netsim.Options) { o.ComapRemote = true },
			attach:    remoteAttached,
			check: func(t *testing.T, n *netsim.Network) {
				// The remote path was actually exercised, not bypassed.
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
			},
		},
		{
			// A traced remote run with live health scrapes, which snapshot
			// the control-plane client and service mid-run.
			name:      "remote-traced",
			comapOnly: true,
			opts: func(_ *testing.T, o *netsim.Options) {
				o.ComapRemote = true
				o.Trace = &trace.Buffer{}
			},
			attach: func(t *testing.T, n *netsim.Network) func() {
				remoteAttached(t, n)
				return func() { _ = n.HealthStatus() }
			},
			check: func(t *testing.T, n *netsim.Network) {
				for _, e := range n.Opts.Trace.(*trace.Buffer).Events {
					if e.Kind == trace.KindCoLadder {
						t.Fatalf("zero-fault remote run emitted ladder transition %q", e.Reason)
					}
				}
				if n.HealthStatus().ControlPlane == nil {
					t.Fatal("health status missing control_plane block on a remote run")
				}
			},
		},
		{
			// The obs admin plane serving the run over HTTP, every endpoint
			// scraped throughout.
			name: "served",
			attach: func(t *testing.T, n *netsim.Network) func() {
				s := obs.NewServer(obs.Options{CaptureDir: t.TempDir()})
				obs.AttachNetwork(s, "run", n)
				addr, err := s.Start("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				client := &http.Client{}
				return func() {
					for _, ep := range []string{"/metrics", "/metrics?format=prom", "/healthz", "/runs",
						"/profile", "/flight", "/audit", "/slo?format=prom"} {
						resp, err := client.Get("http://" + addr + ep)
						if err == nil {
							io.Copy(io.Discard, resp.Body) //nolint:errcheck
							resp.Body.Close()
						}
					}
				}
			},
		},
	}
}

// remoteAttached fails the test unless Build attached the control plane.
func remoteAttached(t *testing.T, n *netsim.Network) func() {
	if n.MapClient == nil || n.MapService == nil {
		t.Fatal("remote control-plane stack not attached")
	}
	return nil
}

// observedReport builds the scenario with a's observers, runs it while
// a's scrape repeats from another goroutine, checks the run invariants and
// returns the network plus its report with the wall-clock self-profiling
// fields zeroed (they are the only non-deterministic fields).
func observedReport(t *testing.T, sc goldenscn.Scenario, a attachment) (*netsim.Network, []byte) {
	t.Helper()
	opts := sc.Opts
	if a.opts != nil {
		a.opts(t, &opts)
	}
	n, err := netsim.Build(sc.Top, opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	var scrape func()
	if a.attach != nil {
		scrape = a.attach(t, n)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if scrape == nil {
			return
		}
		for {
			select {
			case <-stop:
				return
			default:
				scrape()
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
	return n, buf.Bytes()
}

// checkGolden runs sc under attachment a and requires the checked-in
// golden report byte for byte, then a's post-run checks. With
// -update-golden the plain row rewrites the golden instead.
func checkGolden(t *testing.T, sc goldenscn.Scenario, a attachment) {
	t.Helper()
	path := goldenPath(sc.Name)
	n, got := observedReport(t, sc, a)
	if *updateGolden && a.name == "plain" {
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
		t.Fatalf("missing golden (run TestGoldenReports with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s run diverged from golden %s\n"+
			"got %d bytes, want %d bytes; regenerate only if the divergence is intended",
			a.name, path, len(got), len(want))
	}
	if a.check != nil {
		a.check(t, n)
	}
}

// attachmentNamed returns the row of attachments() called name.
func attachmentNamed(t *testing.T, name string) attachment {
	t.Helper()
	for _, a := range attachments() {
		if a.name == name {
			return a
		}
	}
	t.Fatalf("no attachment %q", name)
	return attachment{}
}

// runAttachment runs the named row over every golden scenario it applies
// to, one subtest per scenario.
func runAttachment(t *testing.T, name string) {
	a := attachmentNamed(t, name)
	for _, sc := range goldenScenarios() {
		if a.comapOnly && sc.Opts.Protocol != netsim.ProtocolComap {
			continue
		}
		sc := sc
		t.Run(sc.Name, func(t *testing.T) { checkGolden(t, sc, a) })
	}
}

// TestGoldenReports asserts that every fixture scenario reproduces its
// checked-in pre-optimization report byte for byte, unobserved (plain) and
// served over the obs admin plane. The other rows of attachments() run
// under the tests below, one row each: observation must never touch RNG
// streams or event order.
func TestGoldenReports(t *testing.T) {
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			for _, name := range []string{"plain", "served"} {
				a := attachmentNamed(t, name)
				t.Run(name, func(t *testing.T) { checkGolden(t, sc, a) })
			}
		})
	}
}

func TestGoldenReportsTraced(t *testing.T)       { runAttachment(t, "traced") }
func TestGoldenReportsProfiled(t *testing.T)     { runAttachment(t, "profiled") }
func TestGoldenReportsRemote(t *testing.T)       { runAttachment(t, "remote") }
func TestGoldenReportsRemoteTraced(t *testing.T) { runAttachment(t, "remote-traced") }
