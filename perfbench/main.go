// Command perfbench is the repository benchmark. It runs one workload for a
// bounded wall-clock budget and prints, as the last line of standard output,
// one JSON object with the run's correctness, operation counts and metrics:
// the end-to-end metrics on an untraced run (--trace 0), or the per-layer
// split from a separately traced run (--trace 1).
//
//	perfbench --workload office-comap --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each was chosen):
//
//	office-comap       the paper's Fig. 10 office floor, CO-MAP in-process
//	city-comap-remote  1,000-station city, CO-MAP verdicts through mapsvc
//	mapsvc-http        the comap-mapd stack driven over loopback HTTP
//
// The workload seed is the only input: it generates every topology, trace and
// request body, and the simulator seed. The program under test receives only
// the generated inputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"syscall"
	"time"
)

// heldOutSeed is never used while tuning the benchmark or a change; a later
// performance claim must also hold on it.
const heldOutSeed = 104729

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics of an untraced run. Every workload reports all
// of them; README.md gives each one's definition per workload.
var endToEnd = []metricDef{
	{"wall_per_sim_s", "s/s"},
	{"setup_s", "s"},
	{"alloc_mb_per_sim_s", "MB/s"},
	{"max_rss_mb", "MB"},
	{"fixes_per_s", "1/s"},
	{"verdict_p50_us", "us"},
	{"alloc_b_per_fix", "B"},
}

// tagGroups are the dispatch-tag buckets of the sim layer's split; "other"
// also collects the arq and metrics-sampler tags.
var tagGroups = [numGroups]string{"mac", "channel", "comap", "traffic", "locx", "faults", "other"}

const numGroups = 7

// perLayer lists the metrics of a traced run. A layer a workload does not
// exercise reports 0 for its metrics.
func perLayer() []metricDef {
	defs := []metricDef{
		{"sim.events_per_sim_s", "1/s"},
		{"sim.ns_per_event", "ns"},
		{"sim.pending_peak", "count"},
	}
	for _, g := range tagGroups {
		defs = append(defs,
			metricDef{"sim.tag." + g + ".events", "count"},
			metricDef{"sim.tag." + g + ".wall_s", "s"})
	}
	defs = append(defs,
		metricDef{"channel.callbacks", "count"},
		metricDef{"channel.callback_s", "s"})
	for _, g := range tagGroups {
		defs = append(defs, metricDef{"channel.callback_s." + g, "s"})
	}
	return append(defs, []metricDef{
		{"channel.self_s", "s"},
		{"channel.tx_starts", "count"},
		{"channel.rx_locks", "count"},
		{"channel.rx_ok_ratio", "ratio"},
		{"channel.energy_fanout", "ratio"},
		{"channel.collisions", "count"},
		{"channel.transmit_ns", "ns"},
		{"channel.aggregate_signal_ns", "ns"},

		{"mac.tx_data", "count"},
		{"mac.tx_retry", "count"},
		{"mac.ack_timeout", "count"},
		{"mac.rx_data", "count"},
		{"mac.rx_corrupt", "count"},
		{"mac.drops", "count"},
		{"mac.et_concurrent_tx", "count"},
		{"mac.ack_ratio", "ratio"},

		{"comap.map_hits", "count"},
		{"comap.map_misses", "count"},
		{"comap.map_hit_ratio", "ratio"},
		{"comap.validate_allowed", "count"},
		{"comap.validate_denied", "count"},
		{"comap.fallback_dcf", "count"},
		{"comap.allowed_hit_ns", "ns"},
		{"comap.allowed_miss_ns", "ns"},

		{"mapsvc.ingested", "count"},
		{"mapsvc.verdicts_served", "count"},
		{"mapsvc.verdicts_per_sim_s", "1/s"},
		{"mapsvc.verdicts_computed", "count"},
		{"mapsvc.cache_hit_ratio", "ratio"},
		{"mapsvc.invalidations", "count"},
		{"mapsvc.wal_records", "count"},
		{"mapsvc.client_retries", "count"},
		{"mapsvc.client_fresh_share", "ratio"},
		{"mapsvc.http.ingest_handler_us", "us"},
		{"mapsvc.http.verdict_handler_us", "us"},
		{"mapsvc.http.verdict_client_us", "us"},
		{"mapsvc.verdict_p99_us", "us"},
		{"mapsvc.wal_append_us", "us"},
		{"mapsvc.decode_ns_per_record", "ns"},
		{"mapsvc.verdicts_computed_ratio", "ratio"},
		{"mapsvc.generator_late_ms", "ms"},

		{"runtime.gc_cycles", "count"},
		{"runtime.gc_cpu_s", "s"},
		{"runtime.heap_peak_mb", "MB"},

		{"topology.build_s", "s"},
		{"topology.trace_synth_s", "s"},
		{"netsim.build_s", "s"},
		{"netsim.schedule_trace_s", "s"},
		{"netsim.goodput_mbps", "Mbps"},
		{"netsim.ns_per_delivered_frame", "ns"},
		{"netsim.starved_flow_share", "ratio"},
		{"trace_overhead_pct", "%"},
		{"trace_alloc_delta_pct", "%"},
	}...)
}

// config is one benchmark invocation.
type config struct {
	Seed   int64
	Budget time.Duration // the measured wall-clock window (--seconds)
	Traced bool
	Scale  scale
}

// scale sizes every workload. The command line always runs fullScale; the
// tests run tinyScale.
type scale struct {
	OfficeFloors int           // distinct Fig. 10 floors per run
	OfficeSim    time.Duration // simulated time per floor run
	CityStations int
	CityWindows  int           // measured windows after the warm-up window
	CityWindow   time.Duration // simulated time per window
	MapdStations int           // stations of the city the traffic comes from
	MapdSpan     time.Duration // city trace span pre-encoded in the stream
	MapdRate     float64       // open-loop verdict requests per second
	MapdWarmup   time.Duration // load before measuring starts
	SetupReps    int           // set-ups timed per run (city, mapsvc-http)
}

// fullScale sizes the workloads for a measured budget. Only the city's
// simulated span depends on it; the others run until the budget is spent.
func fullScale(budget time.Duration) scale {
	return scale{
		OfficeFloors: 16,
		OfficeSim:    2 * time.Second,
		CityStations: 1000,
		CityWindows:  cityWindows(budget),
		CityWindow:   100 * time.Millisecond,
		MapdStations: 1000,
		MapdSpan:     10 * time.Second,
		MapdRate:     mapdVerdictRate,
		MapdWarmup:   time.Second,
		SetupReps:    15,
	}
}

// outcome is what a workload run produces: operation counts, failed checks
// and metric values by name.
type outcome struct {
	Attempted int
	Failed    int
	Problems  []string
	Values    map[string]float64
	// Inputs records the seeds the run derived its inputs from.
	Inputs map[string]any
}

// fail records a failed operation with its reason.
func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*outcome, error){
	"office-comap":      runOffice,
	"city-comap-remote": runCity,
	"mapsvc-http":       runMapd,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish turns an outcome into the printed report: every metric of the
// run's kind, with its unit. An end-to-end metric a workload did not set is
// a bug; a per-layer metric it did not set is a layer it does not exercise.
func finish(o *outcome, traced bool) (report, error) {
	defs, optional := endToEnd, false
	if traced {
		defs, optional = perLayer(), true
	}
	r := report{
		Correct:   o.Failed == 0 && o.Attempted > 0,
		Attempted: o.Attempted,
		Failed:    o.Failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.Values[d.Name]
		if !ok && !optional {
			return r, fmt.Errorf("workload did not measure %s", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r, nil
}

// maxRSSMB is the process's peak resident set so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

func main() {
	name := flag.String("workload", "", "workload to run: office-comap, city-comap-remote or mapsvc-http")
	seed := flag.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Float64("seconds", 20, "measured wall-clock budget in seconds")
	trace := flag.Int("trace", 0, "0 = untraced end-to-end run, 1 = traced per-layer run")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", names)
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	cfg := config{
		Seed:   *seed,
		Budget: budget,
		Traced: *trace == 1,
		Scale:  fullScale(budget),
	}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range o.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	r, err := finish(o, cfg.Traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	meta, _ := json.Marshal(map[string]any{
		"workload": *name, "seed": *seed, "held_out_seed": heldOutSeed,
		"trace": *trace, "inputs": o.Inputs,
	})
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(meta))
	fmt.Println(string(line))
}
