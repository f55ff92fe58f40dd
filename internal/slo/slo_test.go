package slo

import (
	"sync"
	"testing"
	"time"
)

// clock is a settable test clock.
type clock struct{ at time.Duration }

func (c *clock) now() time.Duration { return c.at }

func find(t *testing.T, st Status, name string) EndpointStatus {
	t.Helper()
	for _, ep := range st.Endpoints {
		if ep.Endpoint == name {
			return ep
		}
	}
	t.Fatalf("endpoint %q missing from status %+v", name, st)
	return EndpointStatus{}
}

func TestQuantilesConservativeAndMaxExact(t *testing.T) {
	c := &clock{}
	tr := NewTracker(c.now, Objective{Endpoint: "verdict", Latency: 5 * time.Millisecond, Target: 0.999, Window: time.Second})
	// 99 fast requests and one slow outlier: p50/p90 must bound the fast
	// cohort from above (never under-report), p999 and max must see the
	// outlier exactly.
	for i := 0; i < 99; i++ {
		tr.Observe("verdict", 100*time.Microsecond, true)
	}
	outlier := 42 * time.Millisecond
	tr.Observe("verdict", outlier, false)

	ep := find(t, tr.Status(), "verdict")
	if ep.Requests != 100 {
		t.Fatalf("requests = %d, want 100", ep.Requests)
	}
	if ep.P50Ms < 0.1 {
		t.Errorf("p50 %.4fms under-reports the 0.1ms cohort", ep.P50Ms)
	}
	// One geometric bucket is a factor of 2^(1/8) ≈ 1.09 wide; the
	// conservative bound stays within one bucket of the true value.
	if ep.P50Ms > 0.1*1.1 {
		t.Errorf("p50 %.4fms more than one bucket above the 0.1ms cohort", ep.P50Ms)
	}
	if want := outlier.Seconds() * 1e3; ep.MaxMs != want {
		t.Errorf("max %.4fms, want exact %.4fms", ep.MaxMs, want)
	}
	if ep.P999Ms != ep.MaxMs {
		t.Errorf("p999 %.4fms should hit the exact max %.4fms at 100 samples", ep.P999Ms, ep.MaxMs)
	}
}

func TestErrorsAndSlowSpendBudget(t *testing.T) {
	c := &clock{}
	tr := NewTracker(c.now, Objective{Endpoint: "ingest", Latency: time.Millisecond, Target: 0.99, Window: time.Second})
	// 1% budget: 98 good + 1 error + 1 slow = 2% bad, budget overspent.
	for i := 0; i < 98; i++ {
		tr.Observe("ingest", 10*time.Microsecond, true)
	}
	tr.Observe("ingest", 10*time.Microsecond, false) // error
	tr.Observe("ingest", 20*time.Millisecond, true)  // slow: ok but over objective
	st := tr.Status()
	ep := find(t, st, "ingest")
	if ep.Errors != 1 || ep.Slow != 1 {
		t.Fatalf("errors=%d slow=%d, want 1 and 1", ep.Errors, ep.Slow)
	}
	if ep.GoodFraction != 0.98 {
		t.Errorf("good fraction %.4f, want 0.98", ep.GoodFraction)
	}
	if ep.BudgetRemaining >= 0 {
		t.Errorf("budget remaining %.3f, want negative (2%% bad against a 1%% budget)", ep.BudgetRemaining)
	}
}

func TestBudgetWithinObjective(t *testing.T) {
	c := &clock{}
	tr := NewTracker(c.now, Objective{Endpoint: "verdict", Latency: 5 * time.Millisecond, Target: 0.99, Window: time.Second})
	for i := 0; i < 1000; i++ {
		tr.Observe("verdict", 50*time.Microsecond, true)
	}
	tr.Observe("verdict", 50*time.Microsecond, false) // ~0.1% bad of 1% budget
	st := tr.Status()
	ep := find(t, st, "verdict")
	if ep.BudgetRemaining <= 0.8 {
		t.Errorf("budget remaining %.3f, want ~0.9 (a tenth of the budget spent)", ep.BudgetRemaining)
	}
}

func TestBurnRateAgesOut(t *testing.T) {
	c := &clock{}
	tr := NewTracker(c.now, Objective{Endpoint: "verdict", Latency: 5 * time.Millisecond, Target: 0.9, Window: time.Second})
	// A burst of failures inside the window burns at 10x (100% bad over a
	// 10% budget).
	for i := 0; i < 10; i++ {
		tr.Observe("verdict", time.Millisecond, false)
	}
	if br := find(t, tr.Status(), "verdict").BurnRate; br < 9.9 {
		t.Fatalf("burn rate %.2f right after an all-bad burst, want ~10", br)
	}
	// Two windows later the burst has aged out of the trailing window; the
	// whole-run budget stays spent.
	c.at = 2 * time.Second
	ep := find(t, tr.Status(), "verdict")
	if ep.BurnRate != 0 {
		t.Errorf("burn rate %.2f two windows after the burst, want 0", ep.BurnRate)
	}
	if ep.BudgetRemaining >= 0 {
		t.Errorf("budget remaining %.3f, want still overspent (whole-run)", ep.BudgetRemaining)
	}
}

func TestUnknownEndpointAdopted(t *testing.T) {
	c := &clock{}
	tr := NewTracker(c.now) // defaults
	tr.Observe("exotic", 10*time.Microsecond, true)
	ep := find(t, tr.Status(), "exotic")
	if ep.Requests != 1 {
		t.Fatalf("adopted endpoint requests = %d, want 1", ep.Requests)
	}
	if ep.ObjectiveLatencyMs != 5 {
		t.Errorf("adopted objective latency %.1fms, want the 5ms default", ep.ObjectiveLatencyMs)
	}
}

func TestNilTrackerSafe(t *testing.T) {
	var tr *Tracker
	tr.Observe("verdict", time.Millisecond, true) // must not panic
	if st := tr.Status(); len(st.Endpoints) != 0 {
		t.Fatalf("nil tracker status has %d endpoints", len(st.Endpoints))
	}
}

func TestConcurrentObserve(t *testing.T) {
	c := &clock{}
	tr := NewTracker(c.now)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Observe("verdict", time.Duration(i%500)*time.Microsecond, i%100 != 0)
				if i%100 == 0 {
					_ = tr.Status()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := find(t, tr.Status(), "verdict").Requests; got != 8000 {
		t.Fatalf("concurrent observations lost: %d, want 8000", got)
	}
}
