// Command comap-sim runs one scenario of the CO-MAP simulator and prints
// per-flow goodput and per-station MAC statistics:
//
//	comap-sim -topology et -pos 28 -protocol comap -duration 5s
//	comap-sim -topology roles -roles chh -protocol dcf
//	comap-sim -topology fig7 -contenders 5 -hidden 3 -cw 255
//	comap-sim -topology large -protocol comap -cbr 3000000 -poserr 10
//	comap-sim -topology et -profile -profile-out results/profiles/et.json
//	comap-sim -topology city -stations 1000 -protocol dcf -duration 2s
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sort"
	"time"

	"repro/internal/audit"
	"repro/internal/bianchi"
	"repro/internal/faults"
	"repro/internal/frame"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/topology"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "comap-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		topoName    = flag.String("topology", "et", "et | roles | fig7 | large | city")
		stations    = flag.Int("stations", 1000, "city: number of client stations")
		world       = flag.Float64("world", 3000, "city: square world edge length in meters")
		cityTrace   = flag.String("city-trace", "", "city: replay this .loc mobility/churn trace (default: synthesize one from -seed)")
		pos         = flag.Float64("pos", 28, "et: C2 distance from AP1 (m)")
		roles       = flag.String("roles", "chh", "roles: per-client roles, letters from c/h/i")
		contenders  = flag.Int("contenders", 5, "fig7: number of contenders")
		hidden      = flag.Int("hidden", 3, "fig7: number of hidden terminals")
		protocol    = flag.String("protocol", "comap", "dcf | comap")
		regime      = flag.String("regime", "", "testbed | ns2 (default: testbed for et, ns2 otherwise)")
		duration    = flag.Duration("duration", 5*time.Second, "simulated duration")
		seed        = flag.Int64("seed", 1, "random seed")
		payload     = flag.Int("payload", 0, "payload bytes (0 = regime default)")
		cbr         = flag.Float64("cbr", 0, "offered load per flow in bits/s (0 = saturated)")
		posErr      = flag.Float64("poserr", 0, "position error range in meters")
		cw          = flag.Int("cw", 0, "fixed contention window in slots (0 = regime default)")
		adapt       = flag.Bool("adapt", true, "comap: enable hidden-terminal packet-size/CW adaptation")
		tracePath   = flag.String("trace", "", "write a JSONL frame-lifecycle event trace to this file")
		traceEnergy = flag.Bool("trace-energy", false, "also trace per-node energy changes (verbose)")
		reportPath  = flag.String("report", "", "write a JSON run report to this file")
		slice       = flag.Duration("slice", 0, "goodput time-slice interval for the report (0 = no slicing)")
		faultSpec   = flag.String("faults", "", `fault-injection spec, e.g. "locloss:p=0.3;outage:node=2,at=1s,dur=500ms"`)
		comapRemote = flag.Bool("comap-remote", false, "comap: route verdicts through the mapsvc control plane (deterministic in-process transport)")
		rpcFaults   = flag.String("rpc-faults", "", `control-plane RPC fault spec (requires -comap-remote), e.g. "rpcloss:p=0.2,at=1s,dur=500ms;rpcrestart:at=2s,dur=300ms"`)
		httpAddr    = flag.String("http", "", `serve the live observability plane on this address, e.g. ":8080" (metrics, health, runs, pprof)`)
		profile     = flag.Bool("profile", false, "attach the subsystem profiler and print per-tag attribution after the run")
		flightN     = flag.Int("flight", 0, "with -profile: flight-recorder ring capacity, rounded up to a power of two (0 = default 4096, negative disables)")
		profileOut  = flag.String("profile-out", "", "with -profile: also write the attribution JSON to this file")
		auditPath   = flag.String("audit", "", "write a determinism-ledger JSONL (run manifest + per-slice state hashes) to this file")
	)
	flag.Parse()

	spec, err := validateFlags(*duration, *slice, *posErr, *cbr, *payload, *cw, *faultSpec, *httpAddr)
	if err != nil {
		return err
	}
	if err := validateProfileFlags(*profile, *flightN, *profileOut); err != nil {
		return err
	}
	rpcSpec, err := validateRemoteFlags(*protocol, *comapRemote, *rpcFaults, spec)
	if err != nil {
		return err
	}
	if err := validateCityFlags(*topoName, *stations, *world, *cityTrace); err != nil {
		return err
	}

	top, defaultRegime, err := buildTopology(*topoName, *pos, *roles, *contenders, *hidden, *stations, *world, *seed)
	if err != nil {
		return err
	}

	if *regime == "" {
		*regime = defaultRegime
	}
	var opts netsim.Options
	switch *regime {
	case "testbed":
		opts = netsim.TestbedOptions()
	case "ns2":
		opts = netsim.NS2Options()
	case "city":
		opts = netsim.CityOptions()
	default:
		return fmt.Errorf("unknown regime %q", *regime)
	}

	switch *protocol {
	case "dcf":
		opts.Protocol = netsim.ProtocolDCF
	case "comap":
		opts.Protocol = netsim.ProtocolComap
		if *adapt {
			base := bianchi.FromPHY(opts.PHY, opts.PHY.LowestRate())
			opts.AdaptTable = bianchi.NewAdaptationTable(base, 5, 8, nil, nil)
		}
	default:
		return fmt.Errorf("unknown protocol %q", *protocol)
	}

	opts.Seed = *seed
	opts.Duration = *duration
	opts.Faults = spec
	opts.ComapRemote = *comapRemote
	opts.RPCFaults = rpcSpec
	opts.CBRBitsPerSec = *cbr
	opts.PositionErrorMeters = *posErr
	if *payload > 0 {
		opts.PayloadBytes = *payload
	}
	if *cw > 0 {
		opts.FixedCW = *cw
	}
	if *profile {
		opts.Profile = &prof.Config{FlightEvents: *flightN}
	}

	var (
		auditFile *os.File
		auditBuf  *bufio.Writer
	)
	if *auditPath != "" {
		auditFile, err = os.Create(*auditPath)
		if err != nil {
			return err
		}
		// Like traces, ledgers are written one JSON line per slice; buffer so
		// the sink never stalls the event loop on small writes.
		auditBuf = bufio.NewWriterSize(auditFile, 1<<20)
		opts.Audit = &netsim.AuditConfig{
			Scenario: fmt.Sprintf("%s/%s", *topoName, *protocol),
			Config:   audit.Config{Sink: auditBuf},
		}
	}

	var (
		traceFile *os.File
		traceBuf  *bufio.Writer
		traceW    *trace.Writer
	)
	if *tracePath != "" {
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			return err
		}
		// Traces run to hundreds of thousands of events; buffering turns
		// per-event writes into large sequential ones.
		traceBuf = bufio.NewWriterSize(traceFile, 1<<20)
		traceW = trace.NewWriter(traceBuf)
		opts.Trace = traceW
		opts.TraceEnergy = *traceEnergy
	}

	n, err := netsim.Build(top, opts)
	if err != nil {
		return err
	}
	if *topoName == "city" {
		tr, err := loadCityTrace(*cityTrace, top, *seed, *duration)
		if err != nil {
			return err
		}
		if err := n.ScheduleLocTrace(tr); err != nil {
			return err
		}
		fmt.Printf("scheduled %d .loc trace events\n", len(tr.Events))
	}
	n.StartSlicing(*slice)

	var admin *obs.Server
	if *httpAddr != "" {
		admin = obs.NewServer(obs.Options{})
		obs.AttachNetwork(admin, top.Name, n)
		addr, err := admin.Start(*httpAddr)
		if err != nil {
			return fmt.Errorf("starting -http server: %w", err)
		}
		defer admin.Close()
		fmt.Printf("observability plane on http://%s (endpoints: /metrics /healthz /runs /debug/pprof/)\n", addr)
	}

	res := n.Run()
	if auditFile != nil {
		if err := n.Audit.Err(); err != nil {
			auditFile.Close()
			return fmt.Errorf("writing audit ledger %s: %w", *auditPath, err)
		}
		if err := auditBuf.Flush(); err != nil {
			auditFile.Close()
			return fmt.Errorf("flushing audit ledger %s: %w", *auditPath, err)
		}
		if err := auditFile.Close(); err != nil {
			return fmt.Errorf("closing audit ledger %s: %w", *auditPath, err)
		}
	}
	if traceW != nil {
		// Surface buffered-write, flush and close failures instead of
		// silently reporting a truncated trace as success.
		if err := traceW.Err(); err != nil {
			traceFile.Close()
			return fmt.Errorf("writing trace %s: %w", *tracePath, err)
		}
		if err := traceBuf.Flush(); err != nil {
			traceFile.Close()
			return fmt.Errorf("flushing trace %s: %w", *tracePath, err)
		}
		if err := traceFile.Close(); err != nil {
			return fmt.Errorf("closing trace %s: %w", *tracePath, err)
		}
	}

	fmt.Printf("topology %s, protocol %v, %v simulated\n", top.Name, opts.Protocol, opts.Duration)
	res.PrintFlows(os.Stdout)
	fmt.Println()
	n.Summarize().Print(os.Stdout)
	fmt.Println()

	ids := make([]int, 0, len(n.Stations))
	for id := range n.Stations {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		st := n.Stations[frame.NodeID(id)]
		snap := st.MAC.Stats().Snapshot()
		if len(snap) == 0 {
			continue
		}
		fmt.Printf("station %d:", id)
		names := st.MAC.Stats().Names()
		for _, name := range names {
			fmt.Printf(" %s=%d", name, snap[name])
		}
		fmt.Println()
	}

	if *profile {
		a := n.Prof.Attribution()
		printAttribution(os.Stdout, a)
		if *profileOut != "" {
			if err := writeAttribution(*profileOut, a); err != nil {
				return fmt.Errorf("writing profile %s: %w", *profileOut, err)
			}
			fmt.Printf("wrote attribution to %s\n", *profileOut)
		}
	}

	if traceW != nil {
		fmt.Printf("wrote %d trace events to %s\n", traceW.Count(), *tracePath)
	}
	if auditFile != nil {
		head := n.Audit.Head()
		fmt.Printf("wrote audit ledger to %s (%d slices, head %s)\n", *auditPath, head.Slices, head.Head)
	}
	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		if err != nil {
			return err
		}
		if err := n.Report(res).WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("writing report %s: %w", *reportPath, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("closing report %s: %w", *reportPath, err)
		}
		fmt.Printf("wrote run report to %s\n", *reportPath)
	}
	return nil
}

// validateFlags checks the value ranges that flag parsing alone cannot and
// parses the fault specification (nil when empty). It runs before any
// simulator state is built so a bad invocation fails fast with a message
// naming the offending flag.
func validateFlags(duration, slice time.Duration, posErr, cbr float64, payload, cw int, faultSpec, httpAddr string) (*faults.Spec, error) {
	if httpAddr != "" {
		if _, _, err := net.SplitHostPort(httpAddr); err != nil {
			return nil, fmt.Errorf(`bad -http address %q (want host:port, e.g. ":8080"): %w`, httpAddr, err)
		}
	}
	if duration <= 0 {
		return nil, fmt.Errorf("-duration must be positive, got %v", duration)
	}
	if slice < 0 {
		return nil, fmt.Errorf("-slice must be >= 0, got %v", slice)
	}
	if posErr < 0 {
		return nil, fmt.Errorf("-poserr must be >= 0, got %g", posErr)
	}
	if cbr < 0 {
		return nil, fmt.Errorf("-cbr must be >= 0, got %g", cbr)
	}
	if payload < 0 {
		return nil, fmt.Errorf("-payload must be >= 0, got %d", payload)
	}
	if cw < 0 {
		return nil, fmt.Errorf("-cw must be >= 0, got %d", cw)
	}
	spec, err := faults.Parse(faultSpec)
	if err != nil {
		return nil, fmt.Errorf("bad -faults spec: %w", err)
	}
	return spec, nil
}

// validateRemoteFlags checks the control-plane knobs: -comap-remote only
// makes sense under the CO-MAP protocol, -rpc-faults only with a control
// plane to fault, and the two fault flags partition the fault kinds — rpc
// kinds target the control-plane transport, everything else targets
// stations. Each violation names the flag to fix.
func validateRemoteFlags(protocol string, remote bool, rpcFaultSpec string, faultSpec *faults.Spec) (*faults.Spec, error) {
	if faultSpec.HasRPC() {
		return nil, fmt.Errorf("-faults contains rpc fault kinds; control-plane faults belong in -rpc-faults")
	}
	if remote && protocol != "comap" {
		return nil, fmt.Errorf("-comap-remote requires -protocol comap (got %q)", protocol)
	}
	if rpcFaultSpec == "" {
		return nil, nil
	}
	if !remote {
		return nil, fmt.Errorf("-rpc-faults requires -comap-remote (there is no control plane to fault)")
	}
	spec, err := faults.Parse(rpcFaultSpec)
	if err != nil {
		return nil, fmt.Errorf("bad -rpc-faults spec: %w", err)
	}
	if spec.HasNonRPC() {
		return nil, fmt.Errorf("-rpc-faults accepts only rpc fault kinds (rpcloss, rpcdelay, rpcpartition, rpcrestart); station faults belong in -faults")
	}
	return spec, nil
}

// validateCityFlags checks the city-topology knobs: the sizing and trace
// flags only make sense with -topology city, the station count must be
// positive and the world edge positive and finite. Each violation names the
// flag to fix; topology.CityScale re-validates the derived geometry (annulus
// vs AP cell, grid orders) with its own descriptive errors.
func validateCityFlags(topoName string, stations int, world float64, cityTrace string) error {
	if topoName != "city" {
		if stations != 1000 || world != 3000 || cityTrace != "" {
			return fmt.Errorf("-stations, -world and -city-trace require -topology city")
		}
		return nil
	}
	if stations < 1 {
		return fmt.Errorf("-stations must be >= 1, got %d", stations)
	}
	if world <= 0 {
		return fmt.Errorf("-world must be positive, got %g", world)
	}
	return nil
}

// loadCityTrace parses the -city-trace file, or synthesizes a deterministic
// trace spanning the run when none was given.
func loadCityTrace(path string, top topology.Topology, seed int64, duration time.Duration) (*topology.LocTrace, error) {
	if path == "" {
		return topology.SynthesizeCityTrace(top, rand.New(rand.NewSource(seed)), topology.CityTraceConfig{Duration: duration}), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening -city-trace: %w", err)
	}
	defer f.Close()
	tr, err := topology.ParseLocTrace(f)
	if err != nil {
		return nil, fmt.Errorf("bad -city-trace %s: %w", path, err)
	}
	return tr, nil
}

// validateProfileFlags rejects profiler knobs without -profile, so a typo
// like a lone -flight fails fast instead of silently doing nothing.
func validateProfileFlags(profile bool, flight int, out string) error {
	if !profile && (flight != 0 || out != "") {
		return fmt.Errorf("-flight and -profile-out require -profile")
	}
	return nil
}

// printAttribution renders the per-subsystem attribution as a table, busiest
// subsystem first, skipping tags that saw no events.
func printAttribution(w io.Writer, a prof.Attribution) {
	fmt.Fprintf(w, "\nsubsystem attribution (%d events, %.3f s sampled wall time, stride %d):\n",
		a.Events, a.SampledSec, a.SampleEvery)
	tags := make([]prof.TagStat, 0, len(a.Tags))
	for _, t := range a.Tags {
		if t.Events > 0 {
			tags = append(tags, t)
		}
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i].Events > tags[j].Events })
	fmt.Fprintf(w, "  %-16s %12s %12s %8s\n", "tag", "events", "wall", "share")
	for _, t := range tags {
		fmt.Fprintf(w, "  %-16s %12d %10.4f s %7.1f%%\n", t.Tag, t.Events, t.SampledSec, t.SharePct)
	}
}

// writeAttribution writes the attribution as indented JSON (the same layout
// /profile serves).
func writeAttribution(path string, a prof.Attribution) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func buildTopology(name string, pos float64, roleStr string, contenders, hidden, stations int, world float64, seed int64) (topology.Topology, string, error) {
	switch name {
	case "et":
		return topology.ETSweep(pos), "testbed", nil
	case "roles":
		var roles []topology.Role
		for _, c := range roleStr {
			switch c {
			case 'c':
				roles = append(roles, topology.RoleContender)
			case 'h':
				roles = append(roles, topology.RoleHidden)
			case 'i':
				roles = append(roles, topology.RoleIndependent)
			default:
				return topology.Topology{}, "", fmt.Errorf("bad role letter %q (use c/h/i)", c)
			}
		}
		return topology.HTRoles(roles), "ns2", nil
	case "fig7":
		return topology.Fig7(contenders, hidden), "ns2", nil
	case "large":
		return topology.LargeScale(rand.New(rand.NewSource(seed))), "ns2", nil
	case "city":
		cfg := topology.DefaultCityConfig(stations, seed)
		cfg.WorldMeters = world
		top, err := topology.CityScale(cfg)
		if err != nil {
			return topology.Topology{}, "", err
		}
		return top, "city", nil
	default:
		return topology.Topology{}, "", fmt.Errorf("unknown topology %q", name)
	}
}
