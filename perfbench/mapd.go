package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comap"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/loc"
	"repro/internal/mapsvc"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/slo"
	"repro/internal/topology"
)

// The mapsvc-http traffic is the city-comap-remote control plane's, taken from
// the city of the same seed; README.md derives the two constants below from
// that workload's mapsvc counters.
const (
	// mapdBatch is the ingest batch size, in records.
	mapdBatch = 2048
	// mapdVerdictRate is the city's verdict demand on mapsvc in real time:
	// verdicts served per simulated second over the measured windows of
	// city-comap-remote (median of seeds 101–105).
	mapdVerdictRate = 3875
	// mapdHitShare is the share of the city's verdict requests that the
	// service answers from its cache over the first simulated second after
	// warm-up, which includes a re-ask burst after the stations' maps are
	// cleared (seeds 101–105).
	mapdHitShare = 0.67
)

// mapdCity is the city the mapsvc-http traffic is drawn from: the
// city-comap-remote topology of the seed.
func mapdCity(seed int64, stations int) (topology.Topology, error) {
	return topology.CityScale(topology.DefaultCityConfig(stations, seed))
}

// genStream generates and encodes the ingest stream from the seed: every
// node of the city registers its position, then every event of a
// SynthesizeCityTrace over span (walker moves, churn leaves and rejoins)
// becomes one record. One pass over the stream is span simulated seconds,
// which gives the workload its simulated time base.
func genStream(seed int64, top topology.Topology, span time.Duration) [][]byte {
	var recs []mapsvc.IngestRecord
	pos := map[frame.NodeID]geom.Point{}
	for _, n := range top.Nodes {
		pos[n.ID] = n.Pos
		recs = append(recs, mapsvc.IngestRecord{Op: mapsvc.RecReport, Node: n.ID, Fix: loc.Fix{Pos: n.Pos}})
	}
	tr := topology.SynthesizeCityTrace(top, rand.New(rand.NewSource(seed)), topology.CityTraceConfig{Duration: span})
	for _, e := range tr.Events {
		rec := mapsvc.IngestRecord{Op: mapsvc.RecReport, Node: e.Node}
		switch e.Op {
		case topology.LocMove:
			pos[e.Node] = e.Pos
		case topology.LocLeave:
			rec.Op = mapsvc.RecDeregister
		}
		rec.Fix = loc.Fix{Pos: pos[e.Node], ReportedAt: e.At}
		recs = append(recs, rec)
	}
	var bodies [][]byte
	for b := 0; b < len(recs); b += mapdBatch {
		bodies = append(bodies, mapsvc.EncodeRecords(recs[b:min(b+mapdBatch, len(recs))]))
	}
	return bodies
}

// keyGen draws verdict keys shaped like the city's: a station asks whether it
// may send to its AP while another station's uplink is on the air. With
// probability mapdHitShare it repeats a key already sent, which the service
// has cached (nothing in this workload invalidates); otherwise it draws a
// fresh one the service must compute.
type keyGen struct {
	rng    *rand.Rand
	uplink []comap.Link // every station's flow to its AP
	sent   []mapsvc.Key // the fresh keys sent so far
}

func newKeyGen(seed int64, top topology.Topology) *keyGen {
	g := &keyGen{rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
	for _, f := range top.Flows {
		g.uplink = append(g.uplink, comap.Link{Src: f.Src, Dst: f.Dst})
	}
	return g
}

func (g *keyGen) next() mapsvc.Key {
	if len(g.sent) > 0 && g.rng.Float64() < mapdHitShare {
		return g.sent[g.rng.Intn(len(g.sent))]
	}
	mine := g.uplink[g.rng.Intn(len(g.uplink))]
	other := g.uplink[g.rng.Intn(len(g.uplink))]
	for other.Src == mine.Src {
		other = g.uplink[g.rng.Intn(len(g.uplink))]
	}
	k := mapsvc.Key{Observer: mine.Src, Ongoing: other, MyDst: mine.Dst}
	g.sent = append(g.sent, k)
	return k
}

// timedStore times every WAL append of the store it wraps.
type timedStore struct {
	mapsvc.Store
	mu      sync.Mutex
	appends []float64 // microseconds
}

func (s *timedStore) AppendWAL(recs []mapsvc.IngestRecord) error {
	t0 := time.Now()
	err := s.Store.AppendWAL(recs)
	d := float64(time.Since(t0).Nanoseconds()) / 1e3
	s.mu.Lock()
	s.appends = append(s.appends, d)
	s.mu.Unlock()
	return err
}

// timedHandler times the ingest and verdict handlers it wraps.
type timedHandler struct {
	inner   http.Handler
	mu      sync.Mutex
	ingest  []float64 // microseconds
	verdict []float64
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.inner.ServeHTTP(w, r)
	d := float64(time.Since(t0).Nanoseconds()) / 1e3
	h.mu.Lock()
	switch r.URL.Path {
	case "/v1/ingest":
		h.ingest = append(h.ingest, d)
	case "/v1/verdict":
		h.verdict = append(h.verdict, d)
	}
	h.mu.Unlock()
}

// mapd is the comap-mapd stack: the service on a MemStore behind the HTTP
// handler on an obs.Server listening on loopback. Its judge is the city's,
// since it serves the city's traffic.
type mapd struct {
	svc     *mapsvc.Service
	srv     *obs.Server
	base    string
	store   *timedStore   // traced only
	handler *timedHandler // traced only
}

// startMapd starts the stack; traced wraps the store and the handler.
func startMapd(traced bool) (*mapd, error) {
	no := netsim.CityOptions()
	start := time.Now()
	now := func() time.Duration { return time.Since(start) }
	m := &mapd{}
	var store mapsvc.Store = mapsvc.NewMemStore()
	if traced {
		m.store = &timedStore{Store: store}
		store = m.store
	}
	m.svc = mapsvc.NewService(mapsvc.ServiceConfig{
		Judge: comap.Judge{Model: no.ComapModel, Rates: no.PHY.Rates},
		Store: store,
		Now:   now,
	})
	if err := m.svc.Recover(); err != nil {
		return nil, err
	}
	var h http.Handler = mapsvc.NewHTTPHandler(m.svc, 0, slo.NewTracker(now, slo.DefaultObjectives()...))
	if traced {
		m.handler = &timedHandler{inner: h}
		h = m.handler
	}
	m.srv = obs.NewServer(obs.Options{})
	m.srv.Handle("/v1/", h)
	addr, err := m.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m.base = "http://" + addr
	return m, nil
}

// load is the outcome of driving a mapd stack.
type load struct {
	ingestReqs, verdictReqs, failed int64
	accepted                        int64 // records accepted over the whole load
	walDelta                        int64

	// The measured window, after the warm-up.
	elapsed    time.Duration
	windowRecs int64
	allocBytes uint64
	latency    []float64 // µs from due time to response, per verdict
	clientTime []float64 // µs from send to response
	late       []float64 // ms from due time to send
}

// singleConn is an HTTP client holding at most one connection.
func singleConn() *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// drive loads m from exactly two connections: a closed-loop ingest stream
// cycling over the pre-encoded bodies, and an open-loop verdict stream at
// rate requests per second, each request timed from when it was due. The
// window of length measure after warmup is measured.
func drive(m *mapd, bodies [][]byte, keys *keyGen, rate float64, warmup, measure time.Duration, rt *runtimeStats, gc *gcWindow) load {
	var l load
	var accepted, ingestReqs, verdictReqs, failed atomic.Int64
	var stop atomic.Bool
	walBefore := m.svc.Status().WALRecords

	start := time.Now()
	winStart, winEnd := start.Add(warmup), start.Add(warmup+measure)
	var wg sync.WaitGroup
	ingestHC, verdictHC := singleConn(), singleConn()

	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			body := bodies[i%len(bodies)]
			ingestReqs.Add(1)
			resp, err := ingestHC.Post(m.base+"/v1/ingest", "application/octet-stream", bytes.NewReader(body))
			if err != nil {
				failed.Add(1)
				continue
			}
			_, _ = io.Copy(io.Discard, resp.Body) // drain for keep-alive
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				failed.Add(1)
				continue
			}
			accepted.Add(int64(len(body) / recordBytes))
		}
	}()
	go func() {
		defer wg.Done()
		tr := &mapsvc.HTTPTransport{Base: m.base, Client: verdictHC}
		interval := time.Duration(float64(time.Second) / rate)
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * interval)
			if !due.Before(winEnd) {
				return
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			req := &mapsvc.Request{Op: mapsvc.OpVerdict, Key: keys.next()}
			var callErr error
			sent := time.Now()
			verdictReqs.Add(1)
			tr.Invoke(req, func(_ *mapsvc.Response, err error) { callErr = err })
			done := time.Now()
			if callErr != nil {
				failed.Add(1)
				continue
			}
			if !due.Before(winStart) {
				l.latency = append(l.latency, float64(done.Sub(due).Nanoseconds())/1e3)
				l.clientTime = append(l.clientTime, float64(done.Sub(sent).Nanoseconds())/1e3)
				l.late = append(l.late, float64(sent.Sub(due).Nanoseconds())/1e6)
			}
		}
	}()

	sleepUntil := func(t time.Time) {
		for d := time.Until(t); d > 0; d = time.Until(t) {
			time.Sleep(min(d, 100*time.Millisecond))
			if gc != nil {
				gc.sample()
			}
		}
	}
	sleepUntil(winStart)
	recs0, a0, t0 := accepted.Load(), rt.read().AllocBytes, time.Now()
	sleepUntil(winEnd)
	l.windowRecs, l.allocBytes, l.elapsed = accepted.Load()-recs0, rt.read().AllocBytes-a0, time.Since(t0)
	stop.Store(true)
	wg.Wait()
	ingestHC.CloseIdleConnections()
	verdictHC.CloseIdleConnections()

	l.ingestReqs, l.verdictReqs, l.failed = ingestReqs.Load(), verdictReqs.Load(), failed.Load()
	l.accepted = accepted.Load()
	l.walDelta = m.svc.Status().WALRecords - walBefore
	return l
}

// recordBytes is the fixed wire size of one ingest record.
var recordBytes = len(mapsvc.EncodeRecords(make([]mapsvc.IngestRecord, 1)))

// check records the load's failed operations and the ingest accounting.
func (l load) check(o *outcome, label string) {
	o.Attempted += int(l.ingestReqs + l.verdictReqs)
	if l.failed > 0 {
		o.Failed += int(l.failed)
		o.Problems = append(o.Problems, fmt.Sprintf("%s: %d requests errored or were not answered 200", label, l.failed))
	}
	if l.accepted != l.walDelta {
		o.fail("%s: %d records accepted but the WAL grew by %d", label, l.accepted, l.walDelta)
	}
	if l.windowRecs == 0 || len(l.latency) == 0 {
		o.fail("%s: nothing measured", label)
	}
}

// fixesPerSec is the accepted ingest rate over the measured window.
func (l load) fixesPerSec() float64 { return ratio(float64(l.windowRecs), l.elapsed.Seconds()) }

// runMapd is the mapsvc-http workload.
func runMapd(cfg config) (*outcome, error) {
	sc := cfg.Scale
	o := &outcome{Values: map[string]float64{}, Inputs: map[string]any{
		"city_seed": cfg.Seed, "trace_seed": cfg.Seed, "verdict_key_seed": cfg.Seed ^ 0x5eed,
	}}
	rt := newRuntimeStats()

	// Set-up: generate the city and encode its stream, start and recover the
	// service, serve it. Timed several times; the last stack is the one
	// loaded.
	var setups []time.Duration
	var m *mapd
	var top topology.Topology
	var bodies [][]byte
	for i := 0; i < max(1, sc.SetupReps); i++ {
		if m != nil {
			m.srv.Close()
		}
		t0 := time.Now()
		var err error
		if top, err = mapdCity(cfg.Seed, sc.MapdStations); err != nil {
			return nil, fmt.Errorf("mapd set-up: %w", err)
		}
		bodies = genStream(cfg.Seed, top, sc.MapdSpan)
		if m, err = startMapd(false); err != nil {
			return nil, fmt.Errorf("mapd set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}
	records := 0
	for _, b := range bodies {
		records += len(b) / recordBytes
	}
	o.Inputs["nodes"], o.Inputs["stream_records"] = len(top.Nodes), records
	budget := cfg.Budget
	if cfg.Traced {
		budget /= 2
	}
	l := drive(m, bodies, newKeyGen(cfg.Seed, top), sc.MapdRate, sc.MapdWarmup, budget, rt, nil)
	m.srv.Close()
	l.check(o, "untraced load")

	v := o.Values
	simSeconds := float64(l.windowRecs) / float64(records) * sc.MapdSpan.Seconds()
	v["wall_per_sim_s"] = ratio(l.elapsed.Seconds(), simSeconds)
	v["alloc_mb_per_sim_s"] = ratio(float64(l.allocBytes), simSeconds) / 1e6
	v["setup_s"] = median(seconds(setups))
	v["max_rss_mb"] = maxRSSMB()
	v["fixes_per_s"] = l.fixesPerSec()
	v["verdict_p50_us"] = median(l.latency)
	v["alloc_b_per_fix"] = ratio(float64(l.allocBytes), float64(l.windowRecs))
	if !cfg.Traced {
		return o, nil
	}

	// Traced phase: a fresh stack with the store and handler wrapped.
	tm, err := startMapd(true)
	if err != nil {
		return nil, fmt.Errorf("mapd set-up: %w", err)
	}
	gc := beginGC(rt)
	tl := drive(tm, bodies, newKeyGen(cfg.Seed, top), sc.MapdRate, sc.MapdWarmup, budget, rt, gc)
	tm.srv.Close()
	gc.report(v)
	tl.check(o, "traced load")

	st := tm.svc.Status()
	v["mapsvc.ingested"] = float64(st.Ingested)
	v["mapsvc.verdicts_served"] = float64(st.VerdictsServed)
	v["mapsvc.verdicts_computed"] = float64(st.VerdictsComputed)
	v["mapsvc.verdicts_computed_ratio"] = ratio(float64(st.VerdictsComputed), float64(st.VerdictsServed))
	v["mapsvc.cache_hit_ratio"] = 1 - v["mapsvc.verdicts_computed_ratio"]
	v["mapsvc.invalidations"] = float64(st.Invalidations)
	v["mapsvc.wal_records"] = float64(st.WALRecords)
	tm.handler.mu.Lock()
	v["mapsvc.http.ingest_handler_us"] = median(tm.handler.ingest)
	v["mapsvc.http.verdict_handler_us"] = median(tm.handler.verdict)
	tm.handler.mu.Unlock()
	v["mapsvc.http.verdict_client_us"] = median(tl.clientTime) - v["mapsvc.http.verdict_handler_us"]
	v["mapsvc.verdict_p99_us"] = quantile(tl.latency, 0.99)
	tm.store.mu.Lock()
	v["mapsvc.wal_append_us"] = median(tm.store.appends)
	tm.store.mu.Unlock()
	v["mapsvc.generator_late_ms"] = quantile(tl.late, 0.99)
	v["mapsvc.decode_ns_per_record"] = timeRounds(300*time.Millisecond, records, nil, func() {
		for _, b := range bodies {
			if _, err := mapsvc.DecodeRecords(b); err != nil {
				panic(err) // the bodies were encoded by this program
			}
		}
	})
	v["trace_overhead_pct"] = 100 * (ratio(l.fixesPerSec(), tl.fixesPerSec()) - 1)
	v["trace_alloc_delta_pct"] = 100 * (ratio(ratio(float64(tl.allocBytes), float64(tl.windowRecs)), v["alloc_b_per_fix"]) - 1)
	return o, nil
}
