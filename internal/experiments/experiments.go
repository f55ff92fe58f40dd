// Package experiments regenerates every table and figure of the paper's
// evaluation section (§III motivation and §VI): the exposed-terminal sweep
// (Figs. 1 and 8), the hidden-terminal payload study (Fig. 2), the
// analytical-model validation (Fig. 7), the ten hidden-terminal topologies
// (Fig. 9), the large-scale office floor (Fig. 10) and the NS-2 parameter
// table (Table I).
//
// Each generator returns plain data (series of points / CDFs) that
// cmd/comap-experiments renders as text tables; the same generators back the
// repository's benchmark targets.
package experiments

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Opts scales an experiment run.
type Opts struct {
	// Seeds is the number of independent runs averaged per data point.
	Seeds int
	// Duration is the simulated time per run.
	Duration time.Duration
	// Topologies is the number of random layouts for Fig. 10.
	Topologies int
	// TraceDir, when non-empty, writes one JSONL frame-lifecycle trace per
	// run into this directory (created if needed), named
	// <topology>-<protocol>-seed<N>.jsonl, ready for comap-trace. It covers
	// every run driven through the shared per-seed goodput loops (Figs. 1,
	// 2, 7, 9 and the RTS comparison). Tracing never alters results: runs
	// stay bit-identical to untraced ones. Setting TraceDir forces
	// single-worker execution (see Workers).
	TraceDir string
	// AuditDir, when non-empty, writes one determinism ledger (run manifest
	// plus per-slice state hashes, see internal/audit) per run into this
	// directory, named audit-<topology>-<protocol>-o<fp>-seed<N>.jsonl. Like
	// TraceDir, it covers the runs driven through the shared per-seed
	// goodput loops (Figs. 1, 2, 7, 9 and the RTS comparison). The
	// <fp> component is the options fingerprint: grid cells of one figure can
	// share topology, protocol and seed while differing only in options (the
	// Fig. 2 payload sweep), and the fingerprint keeps their filenames
	// distinct — so unlike TraceDir, auditing does NOT force single-worker
	// execution. Ledgers never alter results: runs stay bit-identical to
	// unaudited ones.
	AuditDir string
	// Workers is the number of goroutines the replication runner uses to
	// execute independent (figure point, seed) simulations. 0 uses one
	// worker per CPU; 1 runs sequentially. Every run is a self-contained
	// deterministic engine and results are committed in index order, so the
	// output is bit-identical for any worker count.
	Workers int
	// ComapRemote routes every CO-MAP cell's verdicts through the mapsvc
	// control plane over the deterministic in-process transport. DCF cells
	// and in-band-location variants (which have no oracle registry to
	// mirror) are unaffected. With no RPCFaults the results are
	// bit-identical to in-process CO-MAP.
	ComapRemote bool
	// RPCFaults injects control-plane RPC faults (loss, delay, partition,
	// restart) into the remoted CO-MAP cells; requires ComapRemote.
	RPCFaults *faults.Spec
}

// Quick returns a fast configuration for tests and benchmarks.
func Quick() Opts {
	return Opts{Seeds: 2, Duration: 1 * time.Second, Topologies: 6}
}

// Full returns the paper-scale configuration (Fig. 10: 30 topologies,
// averaged over 10 runs).
func Full() Opts {
	return Opts{Seeds: 10, Duration: 5 * time.Second, Topologies: 30}
}

// Point is one (x, y) sample of a series.
type Point struct {
	X float64
	Y float64
}

// Series is one labelled curve.
type Series struct {
	Name   string
	Points []Point
}

// CDF is one labelled empirical CDF.
type CDF struct {
	Name   string
	Mean   float64
	Points []stats.CDFPoint
}

// PrintSeries renders curves as an aligned text table (x in the first
// column).
func PrintSeries(w io.Writer, xLabel string, series ...Series) {
	fmt.Fprintf(w, "%-12s", xLabel)
	for _, s := range series {
		fmt.Fprintf(w, "%18s", s.Name)
	}
	fmt.Fprintln(w)
	if len(series) == 0 || len(series[0].Points) == 0 {
		return
	}
	for i := range series[0].Points {
		fmt.Fprintf(w, "%-12.0f", series[0].Points[i].X)
		for _, s := range series {
			if i < len(s.Points) {
				fmt.Fprintf(w, "%18.3f", s.Points[i].Y)
			} else {
				fmt.Fprintf(w, "%18s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// PrintCDFs renders CDFs as "value p" step lists with their means.
func PrintCDFs(w io.Writer, unit string, cdfs ...CDF) {
	for _, c := range cdfs {
		fmt.Fprintf(w, "%s (mean %.3f %s):\n", c.Name, c.Mean, unit)
		for _, p := range c.Points {
			fmt.Fprintf(w, "  %10.3f  %5.3f\n", p.X, p.F)
		}
	}
}

// runSeed executes one seeded scenario run, attaching a buffered JSONL
// lifecycle trace when o.TraceDir is set and a determinism ledger when
// o.AuditDir is set.
func runSeed(top topology.Topology, base netsim.Options, o Opts, seed int) (*netsim.Results, error) {
	base.Seed = int64(1000*seed + 7)
	base.Duration = o.Duration
	if o.ComapRemote && base.Protocol == netsim.ProtocolComap && !base.InBandLocation {
		base.ComapRemote = true
		base.RPCFaults = o.RPCFaults
	}
	if o.TraceDir == "" && o.AuditDir == "" {
		return netsim.RunScenario(top, base)
	}

	// sinkFile is one buffered JSONL attachment; closers run after the run
	// and surface buffered-write, flush and close failures in order.
	type sinkFile struct {
		path string
		f    *os.File
		buf  *bufio.Writer
	}
	open := func(dir, name string) (*sinkFile, error) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		return &sinkFile{path: path, f: f, buf: bufio.NewWriterSize(f, 1<<20)}, nil
	}
	finish := func(s *sinkFile, kind string, sinkErr error, runErr error) error {
		if sinkErr != nil && runErr == nil {
			runErr = fmt.Errorf("%s %s: %w", kind, s.path, sinkErr)
		}
		if err := s.buf.Flush(); runErr == nil && err != nil {
			runErr = fmt.Errorf("%s %s: %w", kind, s.path, err)
		}
		if err := s.f.Close(); runErr == nil && err != nil {
			runErr = fmt.Errorf("%s %s: %w", kind, s.path, err)
		}
		return runErr
	}

	cell := fmt.Sprintf("%s-%s", slug(top.Name), slug(base.Protocol.String()))
	var tw *trace.Writer
	var traceSink *sinkFile
	if o.TraceDir != "" {
		var err error
		traceSink, err = open(o.TraceDir, fmt.Sprintf("%s-seed%d.jsonl", cell, seed))
		if err != nil {
			return nil, err
		}
		tw = trace.NewWriter(traceSink.buf)
		base.Trace = tw
	}
	var auditSink *sinkFile
	if o.AuditDir != "" {
		scenario := fmt.Sprintf("%s/%s", top.Name, base.Protocol)
		m := netsim.ManifestFor(scenario, top, base)
		var err error
		auditSink, err = open(o.AuditDir,
			fmt.Sprintf("audit-%s-o%s-seed%d.jsonl", cell, m.OptionsFP, seed))
		if err != nil {
			if traceSink != nil {
				traceSink.f.Close()
			}
			return nil, err
		}
		base.Audit = &netsim.AuditConfig{Scenario: scenario, Config: audit.Config{Sink: auditSink.buf}}
	}

	n, err := netsim.Build(top, base)
	if err != nil {
		for _, s := range []*sinkFile{traceSink, auditSink} {
			if s != nil {
				s.f.Close()
			}
		}
		return nil, err
	}
	res := n.Run()
	var runErr error
	if auditSink != nil {
		runErr = finish(auditSink, "audit ledger", n.Audit.Err(), runErr)
	}
	if traceSink != nil {
		runErr = finish(traceSink, "trace", tw.Err(), runErr)
	}
	return res, runErr
}

// slug reduces a free-form name to a safe filename fragment.
func slug(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}, s)
}
