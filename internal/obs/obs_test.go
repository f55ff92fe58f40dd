package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// TestNilServerIsNoOp locks in trace.Sink-style nil-safety: a main can wire
// the plane unconditionally and pay nothing when it is not enabled.
func TestNilServerIsNoOp(t *testing.T) {
	var s *Server
	s.AddMetrics("x", func() metrics.Snapshot { return metrics.Snapshot{} })
	s.AddRun("x", func() any { return nil })
	s.AddHealth("x", func() (string, any) { return "ok", nil })
	if h := s.Handler(); h != nil {
		t.Fatalf("nil server Handler = %v, want nil", h)
	}
	addr, err := s.Start("127.0.0.1:0")
	if addr != "" || err != nil {
		t.Fatalf("nil server Start = (%q, %v), want no-op", addr, err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("nil server Close: %v", err)
	}
	AttachNetwork(nil, "run", nil)
}

func buildFaulted(t *testing.T, seed int64) *netsim.Network {
	t.Helper()
	spec, err := faults.Parse("locloss:p=0.4;outage:node=1,at=100ms,dur=300ms")
	if err != nil {
		t.Fatal(err)
	}
	opts := netsim.TestbedOptions()
	opts.Protocol = netsim.ProtocolComap
	opts.Seed = seed
	opts.Duration = 600 * time.Millisecond
	opts.Faults = spec
	n, err := netsim.Build(topology.ETSweep(30), opts)
	if err != nil {
		t.Fatal(err)
	}
	n.StartSlicing(100 * time.Millisecond)
	return n
}

func get(t *testing.T, client *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, body
}

// TestEndpointsServeLiveRun attaches a faulted CO-MAP run, serves it over a
// real listener, scrapes every endpoint while the run is in flight, and
// checks the post-run payloads.
func TestEndpointsServeLiveRun(t *testing.T) {
	n := buildFaulted(t, 7)
	s := NewServer(Options{CaptureDir: t.TempDir()})
	AttachNetwork(s, "et30", n)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + addr
	client := &http.Client{Timeout: 5 * time.Second}

	endpoints := []string{"/", "/metrics", "/metrics?format=prom", "/healthz", "/runs", "/debug/pprof/"}
	// Before the run: every endpoint answers, run state is "built".
	for _, ep := range endpoints {
		if code, _ := get(t, client, base+ep); code != http.StatusOK {
			t.Fatalf("GET %s before run: status %d", ep, code)
		}
	}

	// Scrape continuously while the run executes.
	done := make(chan struct{})
	scraped := make(chan int, 1)
	go func() {
		defer close(scraped)
		count := 0
		for {
			select {
			case <-done:
				scraped <- count
				return
			default:
			}
			for _, ep := range endpoints {
				resp, err := client.Get(base + ep)
				if err == nil {
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
					count++
				}
			}
		}
	}()
	n.Run()
	close(done)
	if got := <-scraped; got == 0 {
		t.Logf("run finished before any mid-run scrape completed (fast machine); post-run assertions still apply")
	}

	// /runs reflects the finished run.
	_, body := get(t, client, base+"/runs")
	var runs []struct {
		Name     string          `json:"name"`
		Progress netsim.Progress `json:"progress"`
	}
	if err := json.Unmarshal(body, &runs); err != nil {
		t.Fatalf("/runs: %v\n%s", err, body)
	}
	if len(runs) != 1 || runs[0].Name != "et30" {
		t.Fatalf("/runs = %+v", runs)
	}
	p := runs[0].Progress
	if p.State != netsim.RunStateDone || p.SimSec != 0.6 || p.Events == 0 {
		t.Fatalf("progress = %+v", p)
	}
	if p.WallSec <= 0 || p.Speedup <= 0 || p.EventsPerSec <= 0 {
		t.Fatalf("wall-time stats missing: %+v", p)
	}
	if len(p.Flows) == 0 || len(p.Flows[0].Slices) == 0 {
		t.Fatalf("sliced goodput missing: %+v", p.Flows)
	}

	// /metrics (JSON) carries the medium and both stations' registries.
	_, body = get(t, client, base+"/metrics")
	var snaps map[string]metrics.Snapshot
	if err := json.Unmarshal(body, &snaps); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	for _, want := range []string{"et30.medium", "et30.station.1", "et30.station.2"} {
		if _, ok := snaps[want]; !ok {
			t.Fatalf("/metrics missing source %q (have %v)", want, metrics.SortedKeys(snaps))
		}
	}

	// /metrics?format=prom is text exposition with source labels.
	_, body = get(t, client, base+"/metrics?format=prom")
	prom := string(body)
	if !strings.Contains(prom, "# TYPE") || !strings.Contains(prom, `source="et30.medium"`) {
		t.Fatalf("prom exposition malformed:\n%.500s", prom)
	}

	// /healthz summarises the injector and fallback counters.
	_, body = get(t, client, base+"/healthz")
	var health struct {
		Status  string                         `json:"status"`
		Sources map[string]netsim.HealthStatus `json:"sources"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("/healthz: %v\n%s", err, body)
	}
	hs, ok := health.Sources["et30"]
	if !ok {
		t.Fatalf("/healthz missing source: %s", body)
	}
	if hs.Faults == nil || hs.Faults.Injected == 0 {
		t.Fatalf("healthz shows no injected faults: %+v", hs)
	}
	if hs.HealthPolicy == nil || hs.HealthPolicy.MaxFixAgeSec <= 0 {
		t.Fatalf("healthz missing health policy: %+v", hs)
	}
}

// TestProfileCapture exercises the on-demand CPU/heap capture endpoints.
func TestProfileCapture(t *testing.T) {
	dir := t.TempDir()
	s := NewServer(Options{CaptureDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	var out map[string]string
	code, body := get(t, client, ts.URL+"/debug/profile/heap")
	if code != http.StatusOK {
		t.Fatalf("heap capture: status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(out["profile"]); err != nil || fi.Size() == 0 {
		t.Fatalf("heap profile %q: %v", out["profile"], err)
	}

	code, body = get(t, client, ts.URL+"/debug/profile/cpu?seconds=1")
	if code != http.StatusOK {
		t.Fatalf("cpu capture: status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out["profile"]); err != nil {
		t.Fatalf("cpu profile: %v", err)
	}

	if code, _ = get(t, client, ts.URL+"/debug/profile/cpu?seconds=0"); code != http.StatusBadRequest {
		t.Fatalf("seconds=0: status %d, want 400", code)
	}
	if code, _ = get(t, client, ts.URL+"/debug/profile/cpu?seconds=999"); code != http.StatusBadRequest {
		t.Fatalf("seconds=999: status %d, want 400", code)
	}
}

// TestMetricsDeterministicAcrossScrapes locks in diff-stability: two
// scrapes of an idle registry are byte-identical, in both formats.
func TestMetricsDeterministicAcrossScrapes(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("b.count").Inc()
	reg.Counter("b.count").Inc()
	reg.Counter("a/count").Inc()
	reg.Gauge("load").Set(0.5)
	reg.Timing("lat").Observe(3 * time.Millisecond)
	reg.Dist("occ").Observe(1)

	s := NewServer(Options{})
	s.AddMetrics("src", reg.Snapshot)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, ep := range []string{"/metrics", "/metrics?format=prom"} {
		_, first := get(t, ts.Client(), ts.URL+ep)
		_, second := get(t, ts.Client(), ts.URL+ep)
		if string(first) != string(second) {
			t.Fatalf("%s not diff-stable:\n--- first\n%s\n--- second\n%s", ep, first, second)
		}
	}
}
