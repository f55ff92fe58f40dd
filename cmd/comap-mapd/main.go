// Command comap-mapd runs the CO-MAP control plane as a standalone
// crash-safe service: the location-registry mirror, the co-occurrence
// verdict computation and its sharded caches, behind the mapsvc HTTP API
// with snapshot + write-ahead-log persistence.
//
//	comap-mapd -http :9090 -data /var/lib/comap-mapd
//
// On startup the service recovers from the data directory (snapshot replay,
// then WAL replay), so a SIGKILL loses at most the torn tail of the last
// WAL append. The API:
//
//	POST /v1/ingest      concatenated binary ingest records
//	GET  /v1/verdict     ?obs=&src=&dst=&mydst=
//	POST /v1/invalidate  ?node=N or ?all=1
//	GET  /v1/status      service counters (also folded into /healthz)
//
// plus the standard observability plane (/healthz, /debug/pprof/, ...).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/comap"
	"repro/internal/frame"
	"repro/internal/mapsvc"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/slo"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "comap-mapd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		httpAddr  = flag.String("http", ":9090", "listen address for the API and observability plane")
		dataDir   = flag.String("data", "", "persistence directory for snapshot+WAL (empty = in-memory only)")
		regime    = flag.String("regime", "testbed", "verdict model parameters: testbed | ns2")
		shards    = flag.Int("shards", 0, "verdict-cache shard count (0 = default)")
		snapEvery = flag.Int("snapshot-every", 0, "WAL records between snapshots (0 = default, negative disables)")
		widen     = flag.Float64("widen", 0, "extra error-radius inflation for wide verdicts in meters (0 = default)")
		maxIngest = flag.Int("max-pending-ingest", 0, "concurrently admitted ingest requests before shedding (0 = default)")
		traceOut  = flag.String("trace", "", "write the server-side rpc.srv event stream as JSONL to this file")
	)
	flag.Parse()

	var opts netsim.Options
	switch *regime {
	case "testbed":
		opts = netsim.TestbedOptions()
	case "ns2":
		opts = netsim.NS2Options()
	default:
		return fmt.Errorf("unknown -regime %q (want testbed or ns2)", *regime)
	}

	start := time.Now()
	cfg := mapsvc.ServiceConfig{
		// Health gating stays off (Now nil): standalone ingest streams carry
		// the producers' timestamps, which need not share an epoch with this
		// process's clock.
		Judge:         comap.Judge{Model: opts.ComapModel, Rates: opts.PHY.Rates},
		WidenMeters:   *widen,
		Shards:        *shards,
		SnapshotEvery: *snapEvery,
		Now:           func() time.Duration { return time.Since(start) },
	}
	var store *mapsvc.DirStore
	if *dataDir != "" {
		var err error
		store, err = mapsvc.NewDirStore(*dataDir)
		if err != nil {
			return err
		}
		cfg.Store = store
	}
	svc := mapsvc.NewService(cfg)

	// The server-side structured event stream: admissions, sheds, verdict
	// hits/misses, invalidations, epoch bumps and WAL replays as JSONL
	// trace events stamped with this process's monotonic clock. Handlers
	// run concurrently, so the writer is mutex-guarded.
	var traceW *trace.Writer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		defer func() {
			bw.Flush()
			f.Close()
		}()
		traceW = trace.NewWriter(bw)
		var traceMu sync.Mutex
		svc.SetEvents(func(e trace.Event) {
			e.AtMicros = int64(time.Since(start) / time.Microsecond)
			e.Node = frame.Broadcast
			traceMu.Lock()
			traceW.Record(e)
			traceMu.Unlock()
		})
	}

	// Wall-clock SLO tracking over every API endpoint, surfaced in
	// /v1/status and the obs plane's /slo.
	tracker := slo.NewTracker(func() time.Duration { return time.Since(start) }, slo.DefaultObjectives()...)

	// Recover is a no-op replay on a fresh (or memory-only) store and a full
	// snapshot+WAL rebuild after a kill.
	if err := svc.Recover(); err != nil {
		return fmt.Errorf("recovering from %s: %w", *dataDir, err)
	}
	st := svc.Status()
	fmt.Printf("comap-mapd: recovered %d fixes (%d WAL records replayed), epoch %d\n",
		st.Fixes, st.WALReplayed, st.Epoch)

	admin := obs.NewServer(obs.Options{})
	admin.AddHealth("mapd", func() (string, any) {
		st := svc.Status()
		if st.Down {
			return "degraded", st
		}
		return "ok", st
	})
	admin.AddSLO("mapd", tracker.Status)
	admin.Handle("/v1/", mapsvc.NewHTTPHandler(svc, *maxIngest, tracker))
	addr, err := admin.Start(*httpAddr)
	if err != nil {
		return err
	}
	defer admin.Close()
	fmt.Printf("comap-mapd: serving on http://%s (API under /v1/, health on /healthz)\n", addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("comap-mapd: %v — snapshotting and shutting down\n", s)
	if traceW != nil && traceW.Err() != nil {
		fmt.Fprintln(os.Stderr, "comap-mapd: trace write error:", traceW.Err())
	}
	if store != nil {
		if err := svc.Snapshot(); err != nil {
			return fmt.Errorf("final snapshot: %w", err)
		}
		if err := store.Close(); err != nil {
			return err
		}
	}
	return nil
}
