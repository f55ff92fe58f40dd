package mapsvc

import (
	"repro/internal/faults"
	"repro/internal/frame"
	"repro/internal/sim"
)

// Op is a control-plane operation.
type Op uint8

// The control-plane operations.
const (
	// OpVerdict asks for one concurrency verdict.
	OpVerdict Op = iota + 1
	// OpIngest streams a batch of registry change records.
	OpIngest
	// OpInvalidateNode drops cached verdicts involving a node.
	OpInvalidateNode
	// OpInvalidateAll empties the verdict cache. Only outside callers of
	// comap-mapd's /v1/invalidate?all=1 issue it; the Client never does.
	OpInvalidateAll
)

// OpName names an operation for trace events and SLO endpoints.
func OpName(op Op) string {
	switch op {
	case OpVerdict:
		return "verdict"
	case OpIngest:
		return "ingest"
	case OpInvalidateNode:
		return "invalidate_node"
	case OpInvalidateAll:
		return "invalidate_all"
	default:
		return "unknown"
	}
}

// CallContext is the causal context propagated with every control-plane
// call so client attempts and server-side events can be stitched into one
// span: the run fingerprint, the client-assigned request ID (monotonic,
// never zero) and the 1-based attempt sequence within the request. Over
// HTTP it travels as the X-Comap-Run/X-Comap-Req/X-Comap-Attempt headers.
type CallContext struct {
	Run     string
	Req     uint64
	Attempt int
}

// Request is one control-plane call.
type Request struct {
	Op   Op
	Key  Key            // OpVerdict
	Recs []IngestRecord // OpIngest
	Node frame.NodeID   // OpInvalidateNode
	Ctx  CallContext    // causal context for tracing; zero when untraced
}

// Response is the service's answer.
type Response struct {
	Verdict Verdict // OpVerdict only
	Epoch   uint64  // always: clients detect restarts by epoch change
}

// Transport carries control-plane calls. Invoke issues one call and
// arranges for done to run at most once with the outcome: inline before
// returning (completed=true — the synchronous fast path), later (a delayed
// response; completed=false, the caller arms its deadline), or never (the
// request was lost; completed=false and only the deadline ends the call).
type Transport interface {
	Invoke(req *Request, done func(*Response, error)) (completed bool)
}

// SimTransport is the deterministic in-process transport: calls execute
// against the Service on the simulation clock, with per-call fates (loss,
// delay, partition, service down) drawn by the fault injector from seeded
// engine streams. With no fault fate installed every call completes inline,
// making the remote stack observationally identical to in-process CO-MAP.
type SimTransport struct {
	eng  *sim.Engine
	svc  *Service
	fate func() faults.RPCFate
	down bool
}

var _ faults.RPCSink = (*SimTransport)(nil)

// NewSimTransport builds a transport over an in-process service.
func NewSimTransport(eng *sim.Engine, svc *Service) *SimTransport {
	return &SimTransport{eng: eng, svc: svc}
}

// SetFateFn implements faults.RPCSink: installs the per-call fate oracle.
func (t *SimTransport) SetFateFn(fn func() faults.RPCFate) { t.fate = fn }

// SetDown implements faults.RPCSink: an rpcrestart window opening crashes
// the service; the window closing recovers it (snapshot + WAL replay).
func (t *SimTransport) SetDown(down bool) {
	t.down = down
	if down {
		t.svc.Crash()
	} else {
		// Recovery failures leave the service down; the client keeps
		// failing fast and stays on the degraded rungs.
		_ = t.svc.Recover()
	}
}

// Invoke applies the call's fault fate, then executes it on the service.
func (t *SimTransport) Invoke(req *Request, done func(*Response, error)) bool {
	var fate faults.RPCFate
	if t.fate != nil {
		fate = t.fate()
	}
	if t.down || fate.Down {
		done(nil, ErrUnavailable)
		return true
	}
	if fate.Lost || fate.Partitioned {
		return false
	}
	if fate.Delay > 0 {
		t.eng.AfterTagged(fate.Delay, sim.TagFaults, sim.NoOwner, func() {
			done(t.apply(req))
		})
		return false
	}
	done(t.apply(req))
	return true
}

func (t *SimTransport) apply(req *Request) (*Response, error) {
	switch req.Op {
	case OpVerdict:
		v, err := t.svc.VerdictForCtx(req.Key, req.Ctx)
		if err != nil {
			return nil, err
		}
		return &Response{Verdict: v, Epoch: t.svc.Epoch()}, nil
	case OpIngest:
		if err := t.svc.ApplyCtx(req.Recs, req.Ctx); err != nil {
			return nil, err
		}
	case OpInvalidateNode:
		if t.svc.Down() {
			return nil, ErrUnavailable
		}
		t.svc.InvalidateNodeCtx(req.Node, req.Ctx)
	}
	return &Response{Epoch: t.svc.Epoch()}, nil
}
