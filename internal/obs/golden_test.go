package obs

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/slo"
)

// updateGolden regenerates the admin-plane endpoint dumps:
//
//	go test ./internal/obs/ -run TestEndpointGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the admin-plane endpoint goldens")

// fixedRegistry returns a registry with one instrument of every kind and
// values that never change after construction.
func fixedRegistry(scale int64) *metrics.Registry {
	reg := metrics.NewRegistry()
	for i := int64(0); i < 3*scale; i++ {
		reg.Counter("mac.tx.data").Inc()
	}
	reg.Counter("comap/fallback.dcf").Inc()
	reg.Gauge("queue.depth").Set(0.25 * float64(scale))
	reg.Dist("occupancy").Observe(1)
	reg.Dist("occupancy").Observe(float64(2 * scale))
	reg.Timing("access.latency").Observe(time.Duration(scale) * time.Millisecond)
	reg.Timing("access.latency").Observe(4 * time.Millisecond)
	clock := reg.StateClock("mac", func() time.Duration { return 0 }, "idle")
	clock.Set("tx")
	return reg
}

// fixedTracker returns an SLO tracker on a frozen clock with a few fixed
// observations.
func fixedTracker() *slo.Tracker {
	tr := slo.NewTracker(func() time.Duration { return 1500 * time.Millisecond }, slo.DefaultObjectives()...)
	tr.Observe("verdict", 200*time.Microsecond, true)
	tr.Observe("verdict", 8*time.Millisecond, true)
	tr.Observe("ingest", 50*time.Microsecond, false)
	return tr
}

// finishedLedger returns a ledger fed a fixed dispatch stream and finished.
func finishedLedger(scenario string) *audit.Ledger {
	l := audit.NewLedger(audit.Config{SliceInterval: 100 * time.Millisecond}, audit.Manifest{Scenario: scenario})
	for i, tag := range []sim.Tag{sim.TagChannel, sim.TagMAC, sim.TagComap, sim.TagTraffic, sim.TagMAC} {
		l.OnEvent(time.Duration(i)*70*time.Millisecond, tag, int32(i))
	}
	l.Finish(400 * time.Millisecond)
	return l
}

// register attaches one deterministic source of every kind under name.
func register(s *Server, name string, scale int64) {
	s.AddMetrics(name, fixedRegistry(scale).Snapshot)
	s.AddRun(name, func() any {
		return map[string]any{"state": "done", "sim_sec": 0.4 * float64(scale)}
	})
	s.AddHealth(name, func() (string, any) {
		if scale > 1 {
			return "degraded", map[string]int64{"fallback_dcf": scale}
		}
		return "ok", map[string]int64{"fallback_dcf": 0}
	})
	s.AddSLO(name, fixedTracker().Status)
	s.AddLedger(name, finishedLedger("scn-"+name))
}

// dumpEndpoints renders every deterministic endpoint's status, Content-Type
// and body.
func dumpEndpoints(t *testing.T, s *Server) []byte {
	t.Helper()
	h := s.Handler()
	var out bytes.Buffer
	for _, ep := range []string{
		"/metrics", "/metrics?format=prom",
		"/slo", "/slo?format=prom",
		"/audit", "/audit?format=prom",
		"/profile", "/profile?format=prom", "/flight",
		"/runs", "/healthz",
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, ep, nil))
		fmt.Fprintf(&out, "=== GET %s\nstatus: %d\ncontent-type: %s\n%s\n",
			ep, rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes())
	}
	return out.Bytes()
}

// TestEndpointGolden pins every deterministic admin-plane endpoint byte for
// byte — status, Content-Type and body — for a single unnamed source (no
// source label in Prometheus output) and for two named sources.
func TestEndpointGolden(t *testing.T) {
	cases := []struct {
		name  string
		setup func(*Server)
	}{
		{"unnamed", func(s *Server) { register(s, "", 1) }},
		{"named", func(s *Server) {
			register(s, "alpha", 1)
			register(s, "beta", 2)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewServer(Options{CaptureDir: t.TempDir()})
			tc.setup(s)
			got := dumpEndpoints(t, s)
			path := filepath.Join("testdata", "endpoints_"+tc.name+".txt")
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
				t.Fatalf("endpoint dump diverged from %s:\n--- got\n%s", path, got)
			}
		})
	}
}
