package netsim_test

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// cityFixture is a compact city: 16 APs over a 1.2 km world sharded into 64
// cells, with a synthesized mobility+churn trace whose walkers cross shard
// cell borders mid-run.
func cityFixture(t *testing.T) (topology.Topology, *topology.LocTrace, netsim.Options) {
	t.Helper()
	top, err := topology.CityScale(topology.CityConfig{
		Stations:         60,
		WorldMeters:      1200,
		APOrder:          2,
		CellOrder:        3,
		Seed:             77,
		AnnulusMinMeters: 10,
		AnnulusMaxMeters: 70,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := netsim.CityOptions()
	opts.Seed = 99
	opts.Duration = 400 * time.Millisecond
	tr := topology.SynthesizeCityTrace(top, rand.New(rand.NewSource(13)), topology.CityTraceConfig{
		Duration:         opts.Duration,
		WalkerFraction:   0.2,
		SpeedMps:         30, // fast enough to cross 150 m shard cells in 400 ms
		RoamRadiusMeters: 300,
		ChurnFraction:    0.1,
	})
	if len(tr.Events) == 0 {
		t.Fatal("city trace is empty")
	}
	// The determinism claim is about cell-boundary crossings: assert the
	// trace actually produces some, or the test would pass vacuously.
	pos := map[int]geom.Point{}
	for _, n := range top.Nodes {
		pos[int(n.ID)] = n.Pos
	}
	crossings, churns := 0, 0
	for _, ev := range tr.Events {
		switch ev.Op {
		case topology.LocMove:
			if top.World.ClampedCellOf(pos[int(ev.Node)]) != top.World.ClampedCellOf(ev.Pos) {
				crossings++
			}
			pos[int(ev.Node)] = ev.Pos
		case topology.LocLeave, topology.LocJoin:
			churns++
		}
	}
	if crossings == 0 {
		t.Fatal("trace never crosses a shard cell boundary")
	}
	if churns == 0 {
		t.Fatal("trace has no churn events")
	}
	return top, tr, opts
}

// runCity executes the city fixture with a determinism ledger attached and
// returns the parsed ledger and the normalized report bytes.
func runCity(t *testing.T, top topology.Topology, tr *topology.LocTrace, opts netsim.Options) (*audit.LedgerFile, []byte) {
	t.Helper()
	var buf bytes.Buffer
	opts.Audit = &netsim.AuditConfig{Scenario: "cityscale", Config: audit.Config{Sink: &buf}}
	n, err := netsim.Build(top, opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if top.World == nil {
		t.Fatal("city topology has no shard grid")
	}
	if err := n.ScheduleLocTrace(tr); err != nil {
		t.Fatalf("schedule trace: %v", err)
	}
	res := n.Run()
	if err := n.Audit.Err(); err != nil {
		t.Fatalf("ledger write: %v", err)
	}
	netsim.CheckRunInvariants(t, n)
	rep := n.Report(res)
	rep.Engine.WallSec = 0
	rep.Engine.EventsPerSec = 0
	var repBuf bytes.Buffer
	if err := rep.WriteJSON(&repBuf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	lf, err := audit.Read(&buf)
	if err != nil {
		t.Fatalf("parse ledger: %v", err)
	}
	return lf, repBuf.Bytes()
}

// TestCityScaleDeterministicAcrossRunsAndWorkers replays the mobility+churn
// city — stations migrating shard cells mid-run — and demands bit-identical
// results across repeated runs and across concurrency: one reference run,
// one sequential re-run, and eight concurrent runs on separate goroutines
// must all produce the same report bytes and semantically equal audit
// ledgers.
func TestCityScaleDeterministicAcrossRunsAndWorkers(t *testing.T) {
	top, tr, opts := cityFixture(t)
	refLedger, refReport := runCity(t, top, tr, opts)

	// Repeated sequential run.
	againLedger, againReport := runCity(t, top, tr, opts)
	if !bytes.Equal(refReport, againReport) {
		t.Fatal("repeated city runs produced different reports")
	}
	if d := audit.Compare(refLedger, againLedger); d != nil {
		t.Fatalf("repeated city runs diverge: %+v", d)
	}

	// Eight concurrent runs (workers=8): scheduling pressure from sibling
	// goroutines must not leak into any run.
	const workers = 8
	ledgers := make([]*audit.LedgerFile, workers)
	reports := make([][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker rebuilds its own topology and trace: nothing is
			// shared, exactly like the experiment pool's workers.
			wtop, wtr, wopts := cityFixture(t)
			ledgers[w], reports[w] = runCity(t, wtop, wtr, wopts)
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if !bytes.Equal(refReport, reports[w]) {
			t.Fatalf("worker %d report differs from the sequential reference", w)
		}
		if d := audit.Compare(refLedger, ledgers[w]); d != nil {
			t.Fatalf("worker %d ledger diverges: %+v", w, d)
		}
	}
}

// TestCityBuildRejectsOutOfWorldStations pins the validation path: a station
// outside the shard world must fail Build with an error naming the bounds,
// not be silently clamped.
func TestCityBuildRejectsOutOfWorldStations(t *testing.T) {
	top, _, opts := cityFixture(t)
	for i := range top.Nodes {
		if !top.Nodes[i].IsAP {
			top.Nodes[i].Pos = geom.Pt(-40, 600)
			break
		}
	}
	_, err := netsim.Build(top, opts)
	if err == nil {
		t.Fatal("Build accepted an out-of-world station")
	}
	if !strings.Contains(err.Error(), "outside grid") {
		t.Fatalf("error %q does not describe the world bounds", err)
	}
}

// TestScheduleLocTraceRejectsUnknownNodes pins trace validation.
func TestScheduleLocTraceRejectsUnknownNodes(t *testing.T) {
	top, _, opts := cityFixture(t)
	n, err := netsim.Build(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	bad := &topology.LocTrace{Events: []topology.LocEvent{
		{At: time.Millisecond, Op: topology.LocMove, Node: 9999, Pos: geom.Pt(1, 1)},
	}}
	if err := n.ScheduleLocTrace(bad); err == nil {
		t.Fatal("trace targeting an unknown node accepted")
	} else if !strings.Contains(err.Error(), "unknown node 9999") {
		t.Fatalf("error %q does not name the node", err)
	}
}
