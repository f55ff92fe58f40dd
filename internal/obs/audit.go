package obs

import (
	"repro/internal/audit"
	"repro/internal/metrics"
)

// AddLedger registers a named determinism ledger (internal/audit). It backs
// /audit: the ledger's head digest, per-tag chains and slice/event totals,
// as JSON, or with ?format=prom the comap_audit_slices_total /
// comap_audit_events_total / comap_audit_deep_slices_total counters plus a
// comap_audit_head_info gauge whose "head" label carries the combined
// digest (the standard info-metric idiom for exposing a hash through
// Prometheus). Ledger.Head is a mutex-guarded snapshot published at slice
// closes, so scraping never touches the sim goroutine's state. Nil server
// or ledger is a no-op.
func (s *Server) AddLedger(name string, l *audit.Ledger) {
	if l == nil {
		return
	}
	s.add("/audit", name, source{
		value: func() any { return l.Head() },
		prom: func(pw *metrics.PromWriter, labels map[string]string) {
			h := l.Head()
			pw.Sample("comap_audit_slices_total", "counter", labels, float64(h.Slices))
			pw.Sample("comap_audit_events_total", "counter", labels, float64(h.Events))
			pw.Sample("comap_audit_deep_slices_total", "counter", labels, float64(h.DeepSlices))
			pw.Sample("comap_audit_head_info", "gauge", withLabels(labels, "head", h.Head, "scenario", h.Scenario), 1)
		},
	})
}
