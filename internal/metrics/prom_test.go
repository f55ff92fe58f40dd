package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"mac.access_latency":  "mac_access_latency",
		"flow.1-2.bytes":      "flow_1_2_bytes",
		"faults/injected":     "faults_injected",
		"comap.fallback.dcf":  "comap_fallback_dcf",
		"9lives":              "_9lives",
		"ok_name:with:colons": "ok_name:with:colons",
		"":                    "_",
	}
	for in, want := range cases {
		if got := SanitizeMetricName(in); got != want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPromExpositionEscapesAndOrders builds a registry with the separators
// the simulator actually uses ('.' in instrument names, '/' in derived
// ones) and checks the exposition: sanitized names, one TYPE line per
// family, sorted stable output, escaped label values.
func TestPromExpositionEscapesAndOrders(t *testing.T) {
	reg := NewRegistry()
	for i := 0; i < 5; i++ {
		reg.Counter("tx.data").Inc()
	}
	reg.Counter("faults/injected.locloss").Inc()
	reg.Gauge("queue.len").Set(3)
	reg.Timing("mac.access_latency").Observe(4 * time.Millisecond)
	now := time.Duration(0)
	clk := reg.StateClock("mac", func() time.Duration { return now }, "idle")
	now = time.Second
	clk.Set("tx")

	render := func() string {
		pw := NewPromWriter()
		pw.Add(map[string]string{"source": `station "1"\odd`}, reg.Snapshot())
		var b strings.Builder
		if _, err := pw.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := render()

	for _, want := range []string{
		"# TYPE faults_injected_locloss_total counter\n",
		"# TYPE tx_data_total counter\n",
		"# TYPE queue_len gauge\n",
		"# TYPE mac_access_latency_seconds summary\n",
		"# TYPE mac_airtime_seconds gauge\n",
		`mac_airtime_seconds{source="station \"1\"\\odd",state="idle"} 1`,
		`,quantile="0.5"} `,
		"mac_access_latency_seconds_count{",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "# TYPE mac_access_latency_seconds_count") ||
		strings.Contains(out, "# TYPE mac_access_latency_seconds_sum") {
		t.Errorf("summary helper rows must not redeclare TYPE:\n%s", out)
	}
	// No unsanitized separator may survive in a sample name (label values
	// are allowed to carry anything).
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if strings.ContainsAny(name, "./-") {
			t.Errorf("unsanitized metric name in %q", line)
		}
	}
	// Stable ordering: a second render is byte-identical.
	if second := render(); second != out {
		t.Fatalf("exposition not stable:\n--- first\n%s\n--- second\n%s", out, second)
	}
}

// TestPromSampleFamilies covers the exported Sample path the /profile
// endpoint uses for the comap_prof_* families: names are sanitized, the
// TYPE line is declared once per family, labels render sorted, and the
// already-clean profiler family names pass through unchanged.
func TestPromSampleFamilies(t *testing.T) {
	pw := NewPromWriter()
	pw.Sample("comap_prof_events_total", "counter", map[string]string{"tag": "mac", "source": "et30"}, 42)
	pw.Sample("comap_prof_events_total", "counter", map[string]string{"tag": "channel", "source": "et30"}, 7)
	pw.Sample("comap_prof_sampled_seconds_total", "counter", map[string]string{"tag": "mac"}, 0.25)
	pw.Sample("comap_prof_flight_records_total", "counter", nil, 4096)
	pw.Sample("comap.prof/odd-name", "gauge", map[string]string{"tag": "metrics-sampler"}, 1)

	var b strings.Builder
	if _, err := pw.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE comap_prof_events_total counter\n",
		"# TYPE comap_prof_sampled_seconds_total counter\n",
		"# TYPE comap_prof_flight_records_total counter\n",
		"# TYPE comap_prof_odd_name gauge\n",
		`comap_prof_events_total{source="et30",tag="mac"} 42`,
		`comap_prof_events_total{source="et30",tag="channel"} 7`,
		`comap_prof_sampled_seconds_total{tag="mac"} 0.25`,
		"comap_prof_flight_records_total 4096",
		`comap_prof_odd_name{tag="metrics-sampler"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE comap_prof_events_total"); n != 1 {
		t.Errorf("TYPE declared %d times for comap_prof_events_total, want 1:\n%s", n, out)
	}
}

// TestPromSummaryQuantilesInSeconds checks unit conversion: snapshots carry
// milliseconds, the exposition serves base-unit seconds.
func TestPromSummaryQuantilesInSeconds(t *testing.T) {
	reg := NewRegistry()
	tm := reg.Timing("lat")
	for i := 0; i < 10; i++ {
		tm.Observe(100 * time.Millisecond)
	}
	pw := NewPromWriter()
	pw.Add(nil, reg.Snapshot())
	var b strings.Builder
	if _, err := pw.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `lat_seconds{quantile="0.5"} 0.1`) {
		t.Errorf("quantile not in seconds:\n%s", out)
	}
	if !strings.Contains(out, `lat_seconds{quantile="0.999"} 0.1`) {
		t.Errorf("p999 quantile row missing:\n%s", out)
	}
	if !strings.Contains(out, "lat_seconds_count 10") {
		t.Errorf("missing count:\n%s", out)
	}
	if !strings.Contains(out, "lat_seconds_sum 1") {
		t.Errorf("missing sum (10 × 0.1 s):\n%s", out)
	}
}
