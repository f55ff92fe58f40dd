// Package obs is the simulator's live observability plane: an embeddable
// HTTP admin endpoint any long-running sim can attach. It serves
//
//   - /metrics  — every attached metrics.Registry snapshot, as JSON or
//     Prometheus text exposition (?format=prom),
//   - /healthz  — degraded-mode summary (fault-injector state, CO-MAP
//     location-health fallback counters),
//   - /runs     — live run progress (sim-time vs wall-time speedup,
//     events/s, per-slice goodput, engine queue/pool gauges),
//   - /profile  — the attribution profiler's per-subsystem event counts and
//     sampled wall time (JSON, or comap_prof_* families with ?format=prom),
//   - /flight   — the flight recorder's ring of recent events (?dump=1 also
//     writes it to the profile dir),
//   - /audit    — the determinism ledger's live head digest, per-subsystem
//     hash chains and slice/event totals (JSON, or comap_audit_* families
//     with ?format=prom),
//   - /debug/pprof/ — the standard Go profiling endpoints, plus
//     /debug/profile/{cpu,heap} capturing profiles into a results dir.
//
// The plane is strictly pull-only: handlers read atomic counters, locked
// snapshots and wall clocks, and never call into protocol state, so a
// served run is bit-identical to an unserved one (asserted against the
// golden reports by the served rows of netsim's TestGoldenReports).
//
// Like trace.Sink, the server is nil-safe: every method on a nil *Server is
// a no-op, so instrumented mains can wire it unconditionally and pay
// nothing when no -http flag is given.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/slo"
)

// Options configures a Server.
type Options struct {
	// CaptureDir is where on-demand CPU/heap profiles are written
	// (/debug/profile/...). Empty defaults to "results/profiles".
	CaptureDir string
}

// SnapshotFunc produces a point-in-time metrics snapshot. It must be safe
// to call from any goroutine (metrics.Registry.Snapshot is).
type SnapshotFunc func() metrics.Snapshot

// RunFunc produces a live run-progress value (JSON-marshalable). It must be
// safe to call from any goroutine (netsim.Network.Progress is).
type RunFunc func() any

// HealthFunc produces a health status ("ok" or "degraded") plus a detail
// payload. It must be safe to call from any goroutine.
type HealthFunc func() (status string, detail any)

// SLOFunc produces a point-in-time SLO snapshot. It must be safe to call
// from any goroutine (slo.Tracker.Status is).
type SLOFunc func() slo.Status

// Server is the admin plane. Register sources, then Start (or mount
// Handler yourself). Zero value is usable; nil is a no-op.
type Server struct {
	opts Options

	mu sync.Mutex
	// sources maps an endpoint path to its named sources.
	sources map[string]map[string]source
	extra   map[string]http.Handler

	srv *http.Server
	ln  net.Listener

	// profMu serialises CPU profile captures (the runtime allows one).
	profMu sync.Mutex
}

// source is one named producer behind an endpoint. value yields its JSON
// payload; prom, set for the endpoints that serve ?format=prom, adds its
// Prometheus families under the given base labels.
type source struct {
	value func() any
	prom  func(pw *metrics.PromWriter, labels map[string]string)
}

type namedSource struct {
	name string
	source
}

// NewServer returns an empty admin plane.
func NewServer(opts Options) *Server {
	if opts.CaptureDir == "" {
		opts.CaptureDir = filepath.Join("results", "profiles")
	}
	return &Server{opts: opts}
}

// add registers src under name at path, replacing any earlier source of
// that name.
func (s *Server) add(path, name string, src source) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sources == nil {
		s.sources = make(map[string]map[string]source)
	}
	if s.sources[path] == nil {
		s.sources[path] = make(map[string]source)
	}
	s.sources[path][name] = src
}

// list copies path's sources in name order, for use outside the lock
// (source functions may themselves take instrument locks).
func (s *Server) list(path string) []namedSource {
	s.mu.Lock()
	defer s.mu.Unlock()
	srcs := s.sources[path]
	out := make([]namedSource, 0, len(srcs))
	for _, name := range metrics.SortedKeys(srcs) {
		out = append(out, namedSource{name, srcs[name]})
	}
	return out
}

// AddMetrics registers a named snapshot source served under /metrics.
func (s *Server) AddMetrics(name string, fn SnapshotFunc) {
	if fn == nil {
		return
	}
	s.add("/metrics", name, source{
		value: func() any { return fn() },
		prom:  func(pw *metrics.PromWriter, labels map[string]string) { pw.Add(labels, fn()) },
	})
}

// AddRun registers a named run-progress source served under /runs.
func (s *Server) AddRun(name string, fn RunFunc) {
	if fn == nil {
		return
	}
	s.add("/runs", name, source{value: fn})
}

// healthReading is one /healthz source's answer.
type healthReading struct {
	status string
	detail any
}

// AddHealth registers a named health source served under /healthz.
func (s *Server) AddHealth(name string, fn HealthFunc) {
	if fn == nil {
		return
	}
	s.add("/healthz", name, source{value: func() any {
		status, detail := fn()
		return healthReading{status, detail}
	}})
}

// Handle mounts an application handler on the admin mux under pattern
// (e.g. "/v1/") — how comap-mapd serves its control-plane API and its
// observability endpoints from one listener. Call before Start/Handler.
func (s *Server) Handle(pattern string, h http.Handler) {
	if s == nil || h == nil {
		return
	}
	s.mu.Lock()
	if s.extra == nil {
		s.extra = make(map[string]http.Handler)
	}
	s.extra[pattern] = h
	s.mu.Unlock()
}

// Handler returns the admin mux (nil on a nil server).
func (s *Server) Handler() http.Handler {
	if s == nil {
		return nil
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	for _, path := range []string{"/metrics", "/profile", "/audit", "/slo"} {
		mux.HandleFunc(path, s.serve(path))
	}
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/runs", s.handleRuns)
	mux.HandleFunc("/flight", s.handleFlight)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/profile/cpu", s.handleCaptureCPU)
	mux.HandleFunc("/debug/profile/heap", s.handleCaptureHeap)
	s.mu.Lock()
	for pattern, h := range s.extra {
		mux.Handle(pattern, h)
	}
	s.mu.Unlock()
	return mux
}

// Start listens on addr (host:port; port 0 picks a free one) and serves in
// a background goroutine. It returns the bound address. A nil server
// returns "" with no error, so callers can start unconditionally.
func (s *Server) Start(addr string) (string, error) {
	if s == nil {
		return "", nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	h := s.Handler()
	s.mu.Lock()
	s.ln = ln
	s.srv = &http.Server{Handler: h}
	srv := s.srv
	s.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	return ln.Addr().String(), nil
}

// Close stops the listener. Safe on a nil or never-started server.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	srv := s.srv
	s.srv, s.ln = nil, nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "comap observability plane")
	fmt.Fprintln(w, "  /metrics            registry snapshots (JSON; ?format=prom for Prometheus text)")
	fmt.Fprintln(w, "  /healthz            fault-injector and location-health summary")
	fmt.Fprintln(w, "  /runs               live run progress (speedup, events/s, sliced goodput)")
	fmt.Fprintln(w, "  /profile            per-subsystem event/wall-time attribution (JSON; ?format=prom)")
	fmt.Fprintln(w, "  /flight             flight-recorder ring of recent events (?dump=1 writes a file)")
	fmt.Fprintln(w, "  /audit              determinism-ledger head digest and per-tag chains (JSON; ?format=prom)")
	fmt.Fprintln(w, "  /slo                per-endpoint latency objectives, error budgets, burn rates (JSON; ?format=prom)")
	fmt.Fprintln(w, "  /debug/pprof/       Go profiling endpoints")
	fmt.Fprintln(w, "  /debug/profile/cpu  capture a CPU profile to the results dir (?seconds=N)")
	fmt.Fprintln(w, "  /debug/profile/heap capture a heap profile to the results dir")
}

// serve answers path from its sources: JSON keyed by source name (sorted
// by encoding/json), or with ?format=prom every source's Prometheus
// families, each sample labelled with its source unless the only source is
// unnamed.
func (s *Server) serve(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		srcs := s.list(path)
		if r.URL.Query().Get("format") == "prom" {
			pw := metrics.NewPromWriter()
			for _, src := range srcs {
				labels := map[string]string{}
				if len(srcs) > 1 || src.name != "" {
					labels["source"] = src.name
				}
				src.prom(pw, labels)
			}
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			pw.WriteTo(w) //nolint:errcheck // client went away
			return
		}
		out := make(map[string]any, len(srcs))
		for _, src := range srcs {
			out[src.name] = src.value()
		}
		writeJSON(w, out)
	}
}

// withLabels returns a copy of labels with the given key/value pairs added.
func withLabels(labels map[string]string, kv ...string) map[string]string {
	out := make(map[string]string, len(labels)+len(kv)/2)
	for k, v := range labels {
		out[k] = v
	}
	for i := 0; i+1 < len(kv); i += 2 {
		out[kv[i]] = kv[i+1]
	}
	return out
}

// healthResponse is the /healthz payload.
type healthResponse struct {
	// Status is "ok" unless any source reports otherwise, in which case it
	// carries the first non-ok status (sources sorted by name).
	Status  string         `json:"status"`
	Sources map[string]any `json:"sources,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	srcs := s.list("/healthz")
	resp := healthResponse{Status: "ok"}
	if len(srcs) > 0 {
		resp.Sources = make(map[string]any, len(srcs))
	}
	for _, src := range srcs {
		h := src.value().(healthReading)
		if h.status != "ok" && resp.Status == "ok" {
			resp.Status = h.status
		}
		resp.Sources[src.name] = h.detail
	}
	writeJSON(w, resp)
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	type namedRun struct {
		Name     string `json:"name"`
		Progress any    `json:"progress"`
	}
	srcs := s.list("/runs")
	out := make([]namedRun, 0, len(srcs))
	for _, src := range srcs {
		out = append(out, namedRun{Name: src.name, Progress: src.value()})
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

// handleCaptureCPU profiles the process for ?seconds=N (default 2, max 120)
// and writes the profile into the capture dir, responding with the path.
func (s *Server) handleCaptureCPU(w http.ResponseWriter, r *http.Request) {
	seconds := 2
	if q := r.URL.Query().Get("seconds"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 || n > 120 {
			http.Error(w, "seconds must be an integer in [1, 120]", http.StatusBadRequest)
			return
		}
		seconds = n
	}
	if !s.profMu.TryLock() {
		http.Error(w, "a CPU profile capture is already running", http.StatusConflict)
		return
	}
	defer s.profMu.Unlock()
	path, err := s.captureCPU(time.Duration(seconds) * time.Second)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]string{"profile": path})
}

func (s *Server) handleCaptureHeap(w http.ResponseWriter, r *http.Request) {
	path, err := s.captureHeap()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]string{"profile": path})
}

// captureFile opens a timestamped profile file in the capture dir.
func (s *Server) captureFile(kind string) (*os.File, error) {
	if err := os.MkdirAll(s.opts.CaptureDir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: capture dir: %w", err)
	}
	name := fmt.Sprintf("%s-%s.pprof", kind, time.Now().UTC().Format("20060102T150405.000"))
	f, err := os.Create(filepath.Join(s.opts.CaptureDir, name))
	if err != nil {
		return nil, fmt.Errorf("obs: create profile: %w", err)
	}
	return f, nil
}
