// Package mapsvc extracts the CO-MAP control plane — the location registry
// mirror, the co-occurrence verdict computation and its caches — behind a
// client/server boundary. The Service holds a sharded fix table fed by a
// streaming ingest of registry commits, a sharded per-observer verdict
// cache with per-node invalidation, and snapshot + write-ahead-log
// persistence with replay-on-restart recovery. The Client wraps every call
// in the full robustness toolkit (per-call deadlines, bounded retries with
// jittered exponential backoff, a retry budget, a circuit breaker) and
// degrades through a four-rung ladder — fresh verdicts → cached-but-stale
// with widened error-radius margins → coarse registry-only geometry →
// plain DCF — when the control plane is slow, partitioned or restarting.
//
// The same client runs over two transports: SimTransport executes calls
// in-process on the simulation clock with fault fates drawn from seeded
// engine streams (bit-reproducible chaos), and HTTPTransport talks real
// HTTP to the standalone cmd/comap-mapd server for load testing.
package mapsvc

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comap"
	"repro/internal/frame"
	"repro/internal/loc"
	"repro/internal/trace"
)

// ErrUnavailable reports a call that reached a crashed or shedding service.
var ErrUnavailable = errors.New("mapsvc: control plane unavailable")

// ErrDeadline reports a call abandoned by the client's per-call deadline.
var ErrDeadline = errors.New("mapsvc: call deadline exceeded")

// Key identifies one verdict: observer hearing ongoing while wanting to
// send to MyDst — the co-occurrence map key plus the deciding node.
type Key struct {
	Observer frame.NodeID
	Ongoing  comap.Link
	MyDst    frame.NodeID
}

// Verdict is the service's answer for a Key.
type Verdict struct {
	// Allowed is the full eq.-(3) + rate-economy verdict.
	Allowed bool `json:"allowed"`
	// Wide is the conservative degraded-tier verdict (worst-case geometry
	// with widened error radii, no rate economy); the client serves it from
	// its stale cache when the service is unreachable.
	Wide bool `json:"wide"`
	// Unhealthy marks a verdict the service's health gate refused to
	// compute (a fix involved is missing or past the confidence bound).
	Unhealthy bool `json:"unhealthy"`
	// Cached reports whether the answer came from the verdict cache.
	Cached bool `json:"cached"`
}

// DefaultWidenMeters is the extra error-radius inflation applied to the
// Wide verdict and the client's coarse-geometry tier.
const DefaultWidenMeters = 5.0

// DefaultSnapshotEvery is the WAL-record count between snapshots.
const DefaultSnapshotEvery = 4096

// ServiceConfig configures a Service.
type ServiceConfig struct {
	// Judge is the verdict oracle (model, rates, health-gate clock) —
	// the exact computation the in-process agent runs.
	Judge comap.Judge
	// WidenMeters inflates error radii for the Wide verdict
	// (DefaultWidenMeters when 0).
	WidenMeters float64
	// Shards is the fix-table and verdict-cache shard count (8 when 0).
	Shards int
	// Store is the snapshot+WAL backend; nil disables persistence (a
	// crash then recovers to an empty state).
	Store Store
	// SnapshotEvery is the WAL-record count that triggers a snapshot
	// (DefaultSnapshotEvery when 0; negative disables snapshots).
	SnapshotEvery int
	// Now supplies time for snapshot-age reporting; nil disables it.
	Now func() time.Duration
}

type fixShard struct {
	mu    sync.RWMutex
	fixes map[frame.NodeID]loc.Fix
}

type cachedVerdict struct {
	allowed bool
	wide    bool
}

type verdictShard struct {
	mu sync.RWMutex
	m  map[Key]cachedVerdict
}

// Service is the control-plane server: the fix table, the verdict cache,
// and the persistence plane. All methods are safe for concurrent use; the
// stats are atomics so the observability plane can scrape mid-load.
type Service struct {
	cfg    ServiceConfig
	fixFn  comap.FixFunc
	events func(trace.Event)

	shards  []*fixShard
	vshards []*verdictShard

	down  atomic.Bool
	epoch atomic.Uint64

	// walMu serializes WAL appends, the snapshot cadence counter and
	// snapshot writes.
	walMu    sync.Mutex
	walSince int

	nFixes         atomic.Int64
	nCache         atomic.Int64
	ingested       atomic.Int64
	shed           atomic.Int64
	served         atomic.Int64
	computed       atomic.Int64
	invalidations  atomic.Int64
	walRecords     atomic.Int64
	walReplayed    atomic.Int64
	snapshots      atomic.Int64
	recoveries     atomic.Int64
	lastSnapshotNs atomic.Int64
}

// NewService builds a service. The epoch starts at 1; every Recover
// increments it, which is how clients detect a restart and resync.
func NewService(cfg ServiceConfig) *Service {
	if cfg.WidenMeters == 0 {
		cfg.WidenMeters = DefaultWidenMeters
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	s := &Service{cfg: cfg}
	s.shards = make([]*fixShard, cfg.Shards)
	s.vshards = make([]*verdictShard, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = &fixShard{fixes: make(map[frame.NodeID]loc.Fix)}
		s.vshards[i] = &verdictShard{m: make(map[Key]cachedVerdict)}
	}
	s.fixFn = s.fixOf
	s.epoch.Store(1)
	s.lastSnapshotNs.Store(-1)
	return s
}

// SetEvents installs the server-side structured event sink: every
// admission, shed, verdict hit/miss, invalidation, epoch bump and WAL
// replay is reported as a trace.Event of kind "rpc.srv" carrying the
// caller's causal context. The sink runs on the serving path (the sim
// loop, or an HTTP handler goroutine) so it must be cheap; stamping the
// event with a time and node is the sink's job. Emission is purely
// observational — a nil sink (the default) records nothing at zero cost.
func (s *Service) SetEvents(fn func(trace.Event)) { s.events = fn }

// emit reports one server-side event under the caller's causal context.
func (s *Service) emit(reason, op string, ctx CallContext, count int) {
	if s.events == nil {
		return
	}
	s.events(trace.Event{
		Kind:    trace.KindRPCServer,
		Reason:  reason,
		Op:      op,
		Req:     ctx.Req,
		Attempt: ctx.Attempt,
		Count:   count,
		Epoch:   s.epoch.Load(),
	})
}

// Epoch returns the current service epoch.
func (s *Service) Epoch() uint64 { return s.epoch.Load() }

// Down reports whether the service is crashed.
func (s *Service) Down() bool { return s.down.Load() }

func (s *Service) fixShardOf(id frame.NodeID) *fixShard {
	return s.shards[int(id)%len(s.shards)]
}

func (s *Service) vShardOf(observer frame.NodeID) *verdictShard {
	return s.vshards[int(observer)%len(s.vshards)]
}

func (s *Service) fixOf(id frame.NodeID) (loc.Fix, bool) {
	sh := s.fixShardOf(id)
	sh.mu.RLock()
	f, ok := sh.fixes[id]
	sh.mu.RUnlock()
	return f, ok
}

// ApplyCtx ingests a batch of registry change records: WAL-append first
// (when persistence is on), then apply to the fix table, then snapshot if
// the cadence came due. ctx is the caller's causal context for tracing.
func (s *Service) ApplyCtx(recs []IngestRecord, ctx CallContext) error {
	if s.down.Load() {
		return ErrUnavailable
	}
	doSnap := false
	if s.cfg.Store != nil {
		s.walMu.Lock()
		if err := s.cfg.Store.AppendWAL(recs); err != nil {
			s.walMu.Unlock()
			return err
		}
		s.walRecords.Add(int64(len(recs)))
		s.walSince += len(recs)
		doSnap = s.cfg.SnapshotEvery > 0 && s.walSince >= s.cfg.SnapshotEvery
		s.walMu.Unlock()
	}
	for _, rec := range recs {
		s.applyOne(rec)
	}
	s.ingested.Add(int64(len(recs)))
	s.emit("admit", "ingest", ctx, len(recs))
	if doSnap {
		if err := s.Snapshot(); err != nil {
			return err
		}
	}
	return nil
}

func (s *Service) applyOne(rec IngestRecord) {
	sh := s.fixShardOf(rec.Node)
	sh.mu.Lock()
	_, had := sh.fixes[rec.Node]
	switch rec.Op {
	case RecReport:
		sh.fixes[rec.Node] = rec.Fix
		if !had {
			s.nFixes.Add(1)
		}
	case RecDeregister:
		if had {
			delete(sh.fixes, rec.Node)
			s.nFixes.Add(-1)
		}
	}
	sh.mu.Unlock()
}

// VerdictForCtx answers one verdict request: cache hit, or health gate +
// Judge computation + cache insert. Unhealthy answers are never cached —
// transient ill-health must not poison the verdict cache, mirroring the
// in-process agent. The request's fate ("hit", "miss", "unhealthy") is
// reported on the server-side event stream under the caller's context.
func (s *Service) VerdictForCtx(k Key, ctx CallContext) (Verdict, error) {
	if s.down.Load() {
		return Verdict{}, ErrUnavailable
	}
	s.served.Add(1)
	vs := s.vShardOf(k.Observer)
	vs.mu.RLock()
	c, ok := vs.m[k]
	vs.mu.RUnlock()
	if ok {
		s.emit("hit", "verdict", ctx, 0)
		return Verdict{Allowed: c.allowed, Wide: c.wide, Cached: true}, nil
	}
	j := s.cfg.Judge
	if _, _, healthy := j.FixHealth(s.fixFn, k.Observer, k.MyDst, k.Ongoing.Src, k.Ongoing.Dst); !healthy {
		s.emit("unhealthy", "verdict", ctx, 0)
		return Verdict{Unhealthy: true}, nil
	}
	s.emit("miss", "verdict", ctx, 0)
	s.computed.Add(1)
	allowed := j.Decide(s.fixFn, k.Observer, k.Ongoing, k.MyDst)
	wide, wideOK := j.DecideWide(s.fixFn, k.Observer, k.Ongoing, k.MyDst, s.cfg.WidenMeters)
	if !wideOK {
		wide = false
	}
	vs.mu.Lock()
	if _, exists := vs.m[k]; !exists {
		vs.m[k] = cachedVerdict{allowed: allowed, wide: wide}
		s.nCache.Add(1)
	}
	vs.mu.Unlock()
	return Verdict{Allowed: allowed, Wide: wide}, nil
}

// InvalidateNodeCtx drops every cached verdict involving id as a link
// endpoint or destination — the service-side mirror of
// Agent.OnStationChanged. ctx is the caller's causal context for tracing.
func (s *Service) InvalidateNodeCtx(id frame.NodeID, ctx CallContext) {
	if s.down.Load() {
		return
	}
	s.invalidations.Add(1)
	dropped := 0
	for _, vs := range s.vshards {
		vs.mu.Lock()
		for k := range vs.m {
			if k.Ongoing.Src == id || k.Ongoing.Dst == id || k.MyDst == id {
				delete(vs.m, k)
				s.nCache.Add(-1)
				dropped++
			}
		}
		vs.mu.Unlock()
	}
	if s.events != nil {
		e := trace.Event{
			Kind: trace.KindRPCServer, Reason: "invalidate", Op: "invalidate_node",
			Req: ctx.Req, Attempt: ctx.Attempt, Count: dropped, Epoch: s.epoch.Load(), Src: id,
		}
		s.events(e)
	}
}

// InvalidateAllCtx empties the verdict cache. ctx is the caller's causal
// context for tracing.
func (s *Service) InvalidateAllCtx(ctx CallContext) {
	if s.down.Load() {
		return
	}
	s.invalidations.Add(1)
	dropped := 0
	for _, vs := range s.vshards {
		vs.mu.Lock()
		dropped += len(vs.m)
		s.nCache.Add(-int64(len(vs.m)))
		vs.m = make(map[Key]cachedVerdict)
		vs.mu.Unlock()
	}
	s.emit("invalidate_all", "invalidate_all", ctx, dropped)
}

// Snapshot persists the full fix table (sorted by node for determinism)
// and truncates the WAL.
func (s *Service) Snapshot() error {
	if s.cfg.Store == nil {
		return nil
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	recs := s.fixRecords()
	if err := s.cfg.Store.WriteSnapshot(recs); err != nil {
		return err
	}
	s.walSince = 0
	s.snapshots.Add(1)
	if s.cfg.Now != nil {
		s.lastSnapshotNs.Store(s.cfg.Now().Nanoseconds())
	}
	return nil
}

// fixRecords dumps the fix table as RecReport records sorted by node.
func (s *Service) fixRecords() []IngestRecord {
	var recs []IngestRecord
	for _, sh := range s.shards {
		sh.mu.RLock()
		for id, f := range sh.fixes {
			recs = append(recs, IngestRecord{Op: RecReport, Node: id, Fix: f})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Node < recs[j].Node })
	return recs
}

// Crash simulates the service process dying: all volatile state (fix
// table, verdict cache) is lost; only the Store survives. Calls fail with
// ErrUnavailable until Recover.
func (s *Service) Crash() {
	s.down.Store(true)
	s.clearVolatile()
	s.emit("crash", "", CallContext{}, 0)
}

func (s *Service) clearVolatile() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.fixes = make(map[frame.NodeID]loc.Fix)
		sh.mu.Unlock()
	}
	for _, vs := range s.vshards {
		vs.mu.Lock()
		vs.m = make(map[Key]cachedVerdict)
		vs.mu.Unlock()
	}
	s.nFixes.Store(0)
	s.nCache.Store(0)
}

// Recover restarts the service: volatile state is rebuilt by replaying the
// snapshot then the WAL, the epoch increments (clients detect it and
// resync), and the service comes back up. Safe to call on a fresh service
// with an empty store.
func (s *Service) Recover() error {
	s.clearVolatile()
	walLen := 0
	if s.cfg.Store != nil {
		snap, wal, err := s.cfg.Store.Load()
		if err != nil {
			return err
		}
		for _, rec := range snap {
			s.applyOne(rec)
		}
		for _, rec := range wal {
			s.applyOne(rec)
		}
		walLen = len(wal)
		s.walReplayed.Add(int64(walLen))
	}
	s.walMu.Lock()
	s.walSince = walLen
	s.walMu.Unlock()
	s.epoch.Add(1)
	s.recoveries.Add(1)
	s.down.Store(false)
	s.emit("wal_replay", "", CallContext{}, walLen)
	s.emit("epoch_bump", "", CallContext{}, 0)
	return nil
}

// noteShed counts ingest records refused by admission control and reports
// the shed on the server-side event stream.
func (s *Service) noteShed(n int, ctx CallContext) {
	s.shed.Add(int64(n))
	s.emit("shed", "ingest", ctx, n)
}

// ServiceStatus is a race-safe snapshot for /healthz and /v1/status.
type ServiceStatus struct {
	Down             bool   `json:"down"`
	Epoch            uint64 `json:"epoch"`
	Fixes            int64  `json:"fixes"`
	CacheEntries     int64  `json:"cache_entries"`
	Ingested         int64  `json:"ingested"`
	IngestShed       int64  `json:"ingest_shed"`
	VerdictsServed   int64  `json:"verdicts_served"`
	VerdictsComputed int64  `json:"verdicts_computed"`
	Invalidations    int64  `json:"invalidations"`
	WALRecords       int64  `json:"wal_records"`
	WALReplayed      int64  `json:"wal_replayed"`
	Snapshots        int64  `json:"snapshots"`
	Recoveries       int64  `json:"recoveries"`
	// LastSnapshotAgeSec is -1 when no snapshot has been taken (or no
	// clock is configured).
	LastSnapshotAgeSec float64 `json:"last_snapshot_age_sec"`
}

// Status snapshots the service counters. Safe for concurrent use.
func (s *Service) Status() ServiceStatus {
	st := ServiceStatus{
		Down:               s.down.Load(),
		Epoch:              s.epoch.Load(),
		Fixes:              s.nFixes.Load(),
		CacheEntries:       s.nCache.Load(),
		Ingested:           s.ingested.Load(),
		IngestShed:         s.shed.Load(),
		VerdictsServed:     s.served.Load(),
		VerdictsComputed:   s.computed.Load(),
		Invalidations:      s.invalidations.Load(),
		WALRecords:         s.walRecords.Load(),
		WALReplayed:        s.walReplayed.Load(),
		Snapshots:          s.snapshots.Load(),
		Recoveries:         s.recoveries.Load(),
		LastSnapshotAgeSec: -1,
	}
	if ns := s.lastSnapshotNs.Load(); ns >= 0 && s.cfg.Now != nil {
		st.LastSnapshotAgeSec = (s.cfg.Now() - time.Duration(ns)).Seconds()
	}
	return st
}
