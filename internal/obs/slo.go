package obs

import "repro/internal/metrics"

// AddSLO registers a named SLO snapshot source served under /slo: every
// tracker's per-endpoint objectives as JSON, or the comap_slo_* Prometheus
// families with ?format=prom.
func (s *Server) AddSLO(name string, fn SLOFunc) {
	if fn == nil {
		return
	}
	s.add("/slo", name, source{
		value: func() any { return fn() },
		prom: func(pw *metrics.PromWriter, labels map[string]string) {
			for _, ep := range fn().Endpoints {
				l := withLabels(labels, "endpoint", ep.Endpoint)
				pw.Sample("comap_slo_requests_total", "counter", l, float64(ep.Requests))
				pw.Sample("comap_slo_errors_total", "counter", l, float64(ep.Errors))
				pw.Sample("comap_slo_slow_total", "counter", l, float64(ep.Slow))
				pw.Sample("comap_slo_good_fraction", "gauge", l, ep.GoodFraction)
				pw.Sample("comap_slo_budget_remaining", "gauge", l, ep.BudgetRemaining)
				pw.Sample("comap_slo_burn_rate", "gauge", l, ep.BurnRate)
				pw.Sample("comap_slo_latency_p99_ms", "gauge", l, ep.P99Ms)
				pw.Sample("comap_slo_latency_p999_ms", "gauge", l, ep.P999Ms)
				pw.Sample("comap_slo_latency_max_ms", "gauge", l, ep.MaxMs)
			}
		},
	})
}
