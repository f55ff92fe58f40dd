package netsim

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/trace/rpcspan"
)

// rpcEvents filters a trace down to the control-plane stream: the rpc.*
// client and server kinds plus the ladder transitions they cause.
func rpcEvents(events []trace.Event) []trace.Event {
	var out []trace.Event
	for _, e := range events {
		if strings.HasPrefix(e.Kind, "rpc.") || e.Kind == trace.KindCoLadder {
			out = append(out, e)
		}
	}
	return out
}

// TestRPCChaosStitchingComplete is the tentpole's causal-completeness
// property: under seeded RPC chaos, every client wire attempt lands in
// exactly one stitched span, and every attempt either joins its
// server-side counterpart or carries an explicit loss/partition
// attribution — never an unexplained gap. The ladder transitions must
// resolve to the specific requests that caused them.
func TestRPCChaosStitchingComplete(t *testing.T) {
	// Hidden-terminal fixture with station churn overlapping the outage
	// windows (the ladder test's recipe): leave/rejoin invalidates cached
	// verdicts, so re-decisions land while the control plane is down and
	// the full degraded machinery — retries, breaker, ladder — runs.
	top := topology.HTRoles([]topology.Role{
		topology.RoleContender, topology.RoleHidden, topology.RoleHidden,
	})
	var buf trace.Buffer
	opts := NS2Options()
	opts.Protocol = ProtocolComap
	opts.Seed = 7
	opts.Duration = 2 * time.Second
	opts.ComapRemote = true
	// Loss-heavy windows (rather than rpcChaosSpec's balanced mix) so the
	// trace provably contains in-flight losses to attribute, alongside the
	// restart windows' inline refusals and crash/replay lifecycle.
	opts.RPCFaults = mustParse(t, "rpcloss:p=0.9,at=100ms,dur=400ms,every=1000ms;"+
		"rpcrestart:at=600ms,dur=250ms,every=1000ms")
	opts.Faults = mustParse(t, "churn:node=2,at=150ms,dur=250ms,every=500ms")
	opts.Trace = &buf
	n, err := Build(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := n.Run()
	rep := n.Report(res)

	// The report carries the SLO block on RPC-faulted runs.
	if rep.ControlPlaneSLO == nil {
		t.Fatal("RPC-faulted run report missing control_plane_slo block")
	}
	var sawVerdict bool
	var bad int64
	for _, ep := range rep.ControlPlaneSLO.Endpoints {
		bad += ep.Errors + ep.Slow
		if ep.Endpoint == "verdict" && ep.Requests > 0 {
			sawVerdict = true
		}
	}
	if !sawVerdict {
		t.Error("SLO block has no verdict endpoint with traffic")
	}
	if bad == 0 {
		t.Error("chaos run recorded zero bad requests in the SLO tracker")
	}
	overspent := false
	for _, ep := range rep.ControlPlaneSLO.Endpoints {
		overspent = overspent || ep.BudgetRemaining < 0
	}
	if !overspent {
		t.Error("SLO met under sustained RPC chaos — tracker not seeing the failures")
	}

	stitched := rpcspan.FromEvents(buf.Events)
	if !stitched.HasServer {
		t.Fatal("trace carries no rpc.srv events — service emitter not wired")
	}

	// Every rpc.call appears in exactly one span, keyed (req, attempt).
	type ak struct {
		req uint64
		seq int
	}
	calls := make(map[ak]int)
	for _, e := range buf.Events {
		if e.Kind == trace.KindRPCCall {
			calls[ak{e.Req, e.Attempt}]++
		}
	}
	if len(calls) == 0 {
		t.Fatal("no rpc.call events in a remote chaos trace")
	}
	for k, c := range calls {
		if c != 1 {
			t.Fatalf("rpc.call (req=%d, attempt=%d) emitted %d times", k.req, k.seq, c)
		}
	}
	stitchedAttempts := 0
	attrib := make(map[string]int)
	for _, s := range stitched.Spans {
		for _, a := range s.Attempts {
			stitchedAttempts++
			attrib[a.Attribution]++
			if _, ok := calls[ak{s.Req, a.Seq}]; !ok {
				t.Fatalf("span req %d has attempt %d with no rpc.call event", s.Req, a.Seq)
			}
			switch a.Attribution {
			case rpcspan.AttrJoined, rpcspan.AttrLost, rpcspan.AttrServerDown,
				rpcspan.AttrError, rpcspan.AttrPending:
			default:
				t.Fatalf("attempt (req=%d, seq=%d) has attribution %q — unexplained gap",
					s.Req, a.Seq, a.Attribution)
			}
		}
	}
	if stitchedAttempts != len(calls) {
		t.Fatalf("stitched %d attempts from %d rpc.call events — attempts lost or duplicated",
			stitchedAttempts, len(calls))
	}
	if attrib[rpcspan.AttrJoined] == 0 {
		t.Error("no attempt joined a server event under chaos (joins broken)")
	}
	if attrib[rpcspan.AttrLost] == 0 {
		t.Error("no attempt attributed to loss/partition under rpcloss windows")
	}

	// Ladder attribution: transitions caused by a request must resolve to
	// its span, and at least one downward transition must name its cause.
	if len(stitched.Ladder) == 0 {
		t.Fatal("no ladder transitions stitched from a chaos run")
	}
	caused := 0
	for _, l := range stitched.Ladder {
		if l.Req == 0 {
			continue
		}
		caused++
		if stitched.Span(l.Req) == nil {
			t.Fatalf("ladder transition %q names req %d with no span", l.Change, l.Req)
		}
	}
	if caused == 0 {
		t.Error("no ladder transition carries its causal request ID")
	}

	// The restart windows must open the breaker at least once.
	if len(stitched.Breakers) == 0 {
		t.Error("no breaker-open windows stitched under rpcrestart chaos")
	}

	// Server lifecycle: crash/replay/epoch events from the restart windows.
	saw := make(map[string]bool)
	for _, se := range stitched.Service {
		saw[se.Reason] = true
	}
	for _, want := range []string{"crash", "wal_replay", "epoch_bump"} {
		if !saw[want] {
			t.Errorf("service lifecycle stream missing %q under rpcrestart windows", want)
		}
	}
}

// TestRemoteZeroFaultRPCTrace pins the zero-fault shape of the rpc.*
// stream: every span served on its first attempt and joined to its server
// events, no retries, drops, breaker windows or ladder transitions — and
// the report's control-plane blocks stay absent (they are gated on RPC
// faults, keeping zero-fault reports byte-identical to in-process
// goldens, which the remote-traced rows of TestGoldenReports assert
// against the checked-in files).
func TestRemoteZeroFaultRPCTrace(t *testing.T) {
	top := topology.ETSweep(12)
	var buf trace.Buffer
	opts := TestbedOptions()
	opts.Protocol = ProtocolComap
	opts.Seed = 7
	opts.Duration = time.Second
	opts.ComapRemote = true
	opts.Trace = &buf
	n, err := Build(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := n.Run()
	rep := n.Report(res)
	if rep.ControlPlane != nil || rep.ControlPlaneSLO != nil {
		t.Fatal("zero-fault remote report grew control-plane blocks (golden identity broken)")
	}
	if n.SLO == nil {
		t.Fatal("remote network has no SLO tracker")
	}
	st := n.SLO.Status()
	for _, ep := range st.Endpoints {
		if ep.BudgetRemaining < 0 {
			t.Errorf("zero-fault run out of SLO: %+v", st.Endpoints)
		}
	}

	stitched := rpcspan.FromEvents(buf.Events)
	if len(stitched.Spans) == 0 {
		t.Fatal("no rpc spans on a traced remote run")
	}
	if !stitched.HasServer {
		t.Fatal("no rpc.srv events on a traced remote run")
	}
	for _, s := range stitched.Spans {
		if s.Outcome != rpcspan.SpanServed {
			t.Fatalf("zero-fault span req %d outcome %q, want served", s.Req, s.Outcome)
		}
		if len(s.Attempts) != 1 {
			t.Fatalf("zero-fault span req %d took %d attempts", s.Req, len(s.Attempts))
		}
		if s.Attempts[0].Attribution != rpcspan.AttrJoined {
			t.Fatalf("zero-fault attempt (req %d) attribution %q, want joined",
				s.Req, s.Attempts[0].Attribution)
		}
		if len(s.Drops) != 0 {
			t.Fatalf("zero-fault span req %d has drops %+v", s.Req, s.Drops)
		}
	}
	if len(stitched.Breakers) != 0 || len(stitched.Ladder) != 0 {
		t.Fatalf("zero-fault run stitched %d breaker windows, %d ladder transitions",
			len(stitched.Breakers), len(stitched.Ladder))
	}
}

// TestRPCTraceOrderMultiWorker replicates one chaotic traced run on eight
// concurrent workers and asserts each replica's rpc.* event stream is
// bit-identical to a sequential baseline: the tracing plane reads only
// engine-owned state, so racing whole runs (the experiment runner's worker
// pool does exactly this) must not perturb event order or content. Run
// under -race in CI.
func TestRPCTraceOrderMultiWorker(t *testing.T) {
	top := topology.ETSweep(12)
	runOnce := func() ([]trace.Event, error) {
		var buf trace.Buffer
		opts := TestbedOptions()
		opts.Protocol = ProtocolComap
		opts.Seed = 11
		opts.Duration = time.Second
		opts.ComapRemote = true
		spec, err := faults.Parse(rpcChaosSpec)
		if err != nil {
			return nil, err
		}
		opts.RPCFaults = spec
		opts.Trace = &buf
		n, err := Build(top, opts)
		if err != nil {
			return nil, err
		}
		n.Run()
		return rpcEvents(buf.Events), nil
	}

	baseline, err := runOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) == 0 {
		t.Fatal("baseline run emitted no rpc events")
	}
	want, err := json.Marshal(baseline)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	got := make([][]trace.Event, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], errs[w] = runOnce()
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		b, err := json.Marshal(got[w])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, want) {
			i := 0
			for i < len(got[w]) && i < len(baseline) {
				a, _ := json.Marshal(baseline[i])
				bb, _ := json.Marshal(got[w][i])
				if !bytes.Equal(a, bb) {
					break
				}
				i++
			}
			t.Fatalf("worker %d rpc stream diverged from sequential baseline at event %d (of %d vs %d)",
				w, i, len(got[w]), len(baseline))
		}
	}
}
