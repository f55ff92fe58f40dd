package obs

import (
	"net/http"

	"repro/internal/metrics"
	"repro/internal/prof"
)

// AddProfiler registers a named attribution profiler. It backs two
// endpoints: /profile (per-tag event counts and sampled wall time, JSON or
// comap_prof_* Prometheus families with ?format=prom) and /flight (the
// flight recorder's current ring as JSON; ?dump=1 also writes it to the
// profiler's dump dir and returns the path). Both read only atomics, so
// scraping never perturbs the run. Nil server or profiler is a no-op.
func (s *Server) AddProfiler(name string, p *prof.Profiler) {
	if p == nil {
		return
	}
	s.add("/profile", name, source{
		value: func() any { return p.Attribution() },
		prom: func(pw *metrics.PromWriter, labels map[string]string) {
			for _, ts := range p.Attribution().Tags {
				l := withLabels(labels, "tag", ts.Tag)
				pw.Sample("comap_prof_events_total", "counter", l, float64(ts.Events))
				pw.Sample("comap_prof_sampled_seconds_total", "counter", l, ts.SampledSec)
			}
			if f := p.Flight(); f != nil {
				pw.Sample("comap_prof_flight_records_total", "counter", labels, float64(f.Total()))
			}
		},
	})
	// /flight acts on the profiler itself (?dump=1 writes its ring).
	s.add("/flight", name, source{value: func() any { return p }})
}

// flightView is one profiler's /flight payload.
type flightView struct {
	// Total counts records ever written; Records holds the ring's current
	// contents, oldest first. Dumped names the file written for ?dump=1.
	Total   uint64        `json:"total"`
	Records []prof.Record `json:"records"`
	Dumped  string        `json:"dumped,omitempty"`
}

// handleFlight serves every flight recorder's ring, keyed by source name.
// Profilers without a recorder are omitted. ?dump=1 additionally writes each
// ring to its profiler's dump dir.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	dump := r.URL.Query().Get("dump") == "1"
	out := make(map[string]flightView)
	for _, src := range s.list("/flight") {
		p := src.value().(*prof.Profiler)
		f := p.Flight()
		if f == nil {
			continue
		}
		v := flightView{Records: f.Snapshot(), Total: f.Total()}
		if dump {
			path, err := p.DumpFlight("on-demand")
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			v.Dumped = path
		}
		out[src.name] = v
	}
	writeJSON(w, out)
}
