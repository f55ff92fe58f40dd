package mapsvc

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comap"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/loc"
	"repro/internal/slo"
	"repro/internal/trace"
)

// newHTTPFixture stands up the comap-mapd stack — Service behind
// NewHTTPHandler on a loopback listener — with the server-side event
// stream captured and an SLO tracker attached.
func newHTTPFixture(t *testing.T) (*httptest.Server, *Service, *slo.Tracker, func() []trace.Event) {
	t.Helper()
	start := time.Now()
	now := func() time.Duration { return time.Since(start) }
	svc := NewService(ServiceConfig{
		Judge: testJudge(nil),
		Now:   now,
	})
	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var events []trace.Event
	svc.SetEvents(func(e trace.Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	tracker := slo.NewTracker(now, slo.DefaultObjectives()...)
	srv := httptest.NewServer(NewHTTPHandler(svc, 0, tracker))
	t.Cleanup(srv.Close)
	snapshot := func() []trace.Event {
		mu.Lock()
		defer mu.Unlock()
		out := make([]trace.Event, len(events))
		copy(out, events)
		return out
	}
	return srv, svc, tracker, snapshot
}

// TestHTTPCausalHeadersReachServerEvents drives the real HTTP transport
// with a populated call context and asserts the X-Comap-* headers carry
// the request identity into the server-side rpc.srv events — the join key
// comap-trace rpc stitches on.
func TestHTTPCausalHeadersReachServerEvents(t *testing.T) {
	srv, _, _, snapshot := newHTTPFixture(t)
	tr := &HTTPTransport{Base: srv.URL, Client: srv.Client()}

	ingest := &Request{
		Op: OpIngest,
		Recs: []IngestRecord{{
			Op: RecReport, Node: 1,
			Fix: loc.Fix{Pos: geom.Pt(10, 10), ReportedAt: time.Second, ErrorRadiusMeters: 2},
		}},
		Ctx: CallContext{Run: "deadbeef-7", Req: 42, Attempt: 1},
	}
	var callErr error
	tr.Invoke(ingest, func(_ *Response, err error) { callErr = err })
	if callErr != nil {
		t.Fatalf("ingest over HTTP: %v", callErr)
	}
	verdict := &Request{
		Op:  OpVerdict,
		Key: Key{Observer: 1, Ongoing: comap.Link{Src: 1, Dst: 2}, MyDst: 3},
		Ctx: CallContext{Run: "deadbeef-7", Req: 43, Attempt: 2},
	}
	tr.Invoke(verdict, func(_ *Response, err error) { callErr = err })
	if callErr != nil {
		t.Fatalf("verdict over HTTP: %v", callErr)
	}

	byReq := make(map[uint64]trace.Event)
	for _, e := range snapshot() {
		if e.Kind == trace.KindRPCServer && e.Req != 0 {
			byReq[e.Req] = e
		}
	}
	admit, ok := byReq[42]
	if !ok {
		t.Fatal("ingest produced no rpc.srv event carrying req 42 — headers dropped")
	}
	if admit.Reason != "admit" || admit.Op != "ingest" || admit.Attempt != 1 || admit.Count != 1 {
		t.Errorf("ingest server event = %+v, want admit/ingest attempt 1 count 1", admit)
	}
	miss, ok := byReq[43]
	if !ok {
		t.Fatal("verdict produced no rpc.srv event carrying req 43 — headers dropped")
	}
	if miss.Reason != "miss" || miss.Op != "verdict" || miss.Attempt != 2 {
		t.Errorf("verdict server event = %+v, want miss/verdict attempt 2", miss)
	}
}

// TestHTTPIngestRejectsNonFiniteFix asserts /v1/ingest answers 400 to a
// report with a non-finite fix and leaves the fix table without it.
func TestHTTPIngestRejectsNonFiniteFix(t *testing.T) {
	srv, svc, _, _ := newHTTPFixture(t)
	body := EncodeRecords([]IngestRecord{{
		Op: RecReport, Node: 4,
		Fix: loc.Fix{Pos: geom.Pt(math.NaN(), math.Inf(1)), ErrorRadiusMeters: math.NaN()},
	}})
	resp, err := srv.Client().Post(srv.URL+"/v1/ingest", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400", resp.StatusCode)
	}
	if fix, ok := svc.fixOf(4); ok {
		t.Errorf("fix table holds %+v", fix)
	}
}

// raceEnabled is set by race_test.go in -race builds, whose instrumentation
// allocates on its own.
var raceEnabled bool

// postIngest serves one POST /v1/ingest of body on h.
func postIngest(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
	return rec
}

// reportBatch is n reports of nodes first, first+1, ... (mod 65,536).
func reportBatch(first, n int) []IngestRecord {
	recs := make([]IngestRecord, n)
	for i := range recs {
		recs[i] = IngestRecord{Op: RecReport, Node: frame.NodeID(first + i),
			Fix: loc.Fix{Pos: geom.Pt(float64(i), 1), ReportedAt: time.Second, ErrorRadiusMeters: 2}}
	}
	return recs
}

// TestHTTPIngestReplyBytes pins the /v1/ingest reply byte for byte: the
// indented JSON of {"epoch", "ingested"} that encoding/json writes.
func TestHTTPIngestReplyBytes(t *testing.T) {
	_, svc, _, _ := newHTTPFixture(t)
	rec := postIngest(NewHTTPHandler(svc, 0, nil), EncodeRecords(testTopologyRecords(0)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	const want = "{\n  \"epoch\": 2,\n  \"ingested\": 5\n}\n"
	if got := rec.Body.String(); got != want {
		t.Errorf("reply %q, want %q", got, want)
	}
	var enc bytes.Buffer
	e := json.NewEncoder(&enc)
	e.SetIndent("", "  ")
	if err := e.Encode(map[string]any{"ingested": 5, "epoch": uint64(2)}); err != nil {
		t.Fatal(err)
	}
	if enc.String() != want {
		t.Errorf("encoding/json writes %q, the pinned reply is %q", enc.String(), want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want application/json", ct)
	}
}

// TestHTTPIngestBodyBound asserts /v1/ingest accepts a full-registry resync
// (one report per possible NodeID) and answers 413 to a body one record
// longer, leaving the ingest count, the WAL and the fix table as they were.
func TestHTTPIngestBodyBound(t *testing.T) {
	store := NewMemStore()
	svc := NewService(ServiceConfig{Judge: testJudge(nil), Store: store, SnapshotEvery: -1})
	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	h := NewHTTPHandler(svc, 0, nil)
	full := EncodeRecords(reportBatch(0, 1<<16))
	if len(full) != maxIngestBody {
		t.Fatalf("a full resync is %d bytes, the bound is %d", len(full), maxIngestBody)
	}
	if rec := postIngest(h, full); rec.Code != http.StatusOK {
		t.Fatalf("full resync: status %d: %s", rec.Code, rec.Body)
	}
	if st := svc.Status(); st.Fixes != 1<<16 || st.Ingested != 1<<16 {
		t.Fatalf("full resync: %d fixes, %d ingested, want 65536 each", st.Fixes, st.Ingested)
	}

	over := EncodeRecords(reportBatch(7, 1<<16+1))
	before := svc.Status()
	if rec := postIngest(h, over); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status %d, want 413", rec.Code)
	}
	after := svc.Status()
	if after.Ingested != before.Ingested || after.WALRecords != before.WALRecords {
		t.Errorf("oversize body moved ingested %d -> %d, WAL records %d -> %d",
			before.Ingested, after.Ingested, before.WALRecords, after.WALRecords)
	}
	if _, wal, _ := store.Load(); len(wal) != 1<<16 {
		t.Errorf("WAL holds %d records after the rejected body, want 65536", len(wal))
	}
	if fix, _ := svc.fixOf(7); fix.Pos.X != 7 {
		t.Errorf("node 7 holds %+v after the rejected body, want the resync's fix", fix)
	}
}

// TestHTTPIngestAllocationsPerPost pins the ingest handler's steady state:
// a POST allocates the same whether it carries 64 records or 2,048, so no
// allocation is made per record.
func TestHTTPIngestAllocationsPerPost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	svc := NewService(ServiceConfig{Judge: testJudge(nil), Store: NewMemStore()})
	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	h := NewHTTPHandler(svc, 0, slo.NewTracker(func() time.Duration { return 0 }, slo.DefaultObjectives()...))
	perPost := func(n int) float64 {
		body := EncodeRecords(reportBatch(0, n))
		post := func() {
			if rec := postIngest(h, body); rec.Code != http.StatusOK {
				t.Fatalf("%d records: status %d", n, rec.Code)
			}
		}
		// Warm up through several snapshots, so the table, the WAL, the
		// snapshot buffer and the pooled buffers reach their sizes.
		for i := 0; i < 4*DefaultSnapshotEvery/n+4; i++ {
			post()
		}
		return testing.AllocsPerRun(100, post)
	}
	small, large := perPost(64), perPost(2048)
	t.Logf("%.0f allocations per POST of 64 records, %.0f of 2048", small, large)
	if small != large {
		t.Errorf("a POST of 2048 records makes %.0f allocations, one of 64 makes %.0f: the handler allocates per record", large, small)
	}
}

// TestHTTPStatusCarriesSLO asserts /v1/status folds the tracker's
// per-endpoint SLO block in, with the handler-observed request counted.
func TestHTTPStatusCarriesSLO(t *testing.T) {
	srv, _, _, _ := newHTTPFixture(t)
	tr := &HTTPTransport{Base: srv.URL, Client: srv.Client()}
	req := &Request{
		Op:  OpVerdict,
		Key: Key{Observer: 1, Ongoing: comap.Link{Src: 1, Dst: 2}, MyDst: 3},
		Ctx: CallContext{Req: 1, Attempt: 1},
	}
	var callErr error
	tr.Invoke(req, func(_ *Response, err error) { callErr = err })
	if callErr != nil {
		t.Fatal(callErr)
	}

	resp, err := srv.Client().Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusWithSLO
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.SLO == nil {
		t.Fatal("/v1/status has no slo block with a tracker attached")
	}
	found := false
	for _, ep := range st.SLO.Endpoints {
		if ep.Endpoint == "verdict" {
			found = true
			if ep.Requests < 1 {
				t.Errorf("verdict endpoint requests = %d, want >= 1", ep.Requests)
			}
		}
	}
	if !found {
		t.Error("slo block missing the verdict endpoint")
	}
}

// TestHTTPRequestsWithoutHeadersStillServe pins backward compatibility:
// a plain client with no X-Comap-* headers gets served, and the server
// events carry the zero request ID (collected as request-less admissions,
// not joined spans).
func TestHTTPRequestsWithoutHeadersStillServe(t *testing.T) {
	srv, _, _, snapshot := newHTTPFixture(t)
	resp, err := srv.Client().Get(srv.URL + "/v1/verdict?obs=1&src=1&dst=2&mydst=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bare verdict request: status %d", resp.StatusCode)
	}
	for _, e := range snapshot() {
		if e.Kind == trace.KindRPCServer && e.Op == "verdict" {
			if e.Req != 0 || e.Attempt != 0 {
				t.Fatalf("header-less request produced ctx-stamped event %+v", e)
			}
			return
		}
	}
	t.Fatal("no verdict server event at all")
}

// TestHTTPInvalidateAllAcceptsOnlyOne asserts /v1/invalidate empties the
// verdict cache for all=1 only: any other value of all is a 400 that
// leaves the cache alone.
func TestHTTPInvalidateAllAcceptsOnlyOne(t *testing.T) {
	srv, svc, _, _ := newHTTPFixture(t)
	if err := svc.ApplyCtx(testTopologyRecords(0), CallContext{}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.VerdictForCtx(farKey, CallContext{}); err != nil {
		t.Fatal(err)
	}
	post := func(query string) int {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/v1/invalidate?"+query, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, q := range []string{"all=0", "all=", "all=true", "all=1&all=0", "all=0&node=2"} {
		if code := post(q); code != http.StatusBadRequest {
			t.Errorf("invalidate?%s: status %d, want 400", q, code)
		}
		if st := svc.Status(); st.Invalidations != 0 || st.CacheEntries != 1 {
			t.Fatalf("invalidate?%s changed the cache: invalidations %d, entries %d", q, st.Invalidations, st.CacheEntries)
		}
	}
	if code := post("all=1"); code != http.StatusOK {
		t.Fatalf("invalidate?all=1: status %d, want 200", code)
	}
	if st := svc.Status(); st.Invalidations != 1 || st.CacheEntries != 0 {
		t.Fatalf("invalidate?all=1: invalidations %d, entries %d, want 1 and 0", st.Invalidations, st.CacheEntries)
	}
}

// TestHTTPVerdictIsGETOnly pins /v1/verdict to its documented method: any
// other method answers 405 without reaching the service, as /v1/ingest and
// /v1/invalidate do for theirs.
func TestHTTPVerdictIsGETOnly(t *testing.T) {
	srv, svc, _, _ := newHTTPFixture(t)
	if err := svc.ApplyCtx(testTopologyRecords(0), CallContext{}); err != nil {
		t.Fatal(err)
	}
	url := srv.URL + "/v1/verdict?obs=3&src=1&dst=2&mydst=4"
	for _, method := range []string{http.MethodDelete, http.MethodPost, http.MethodPut, http.MethodPatch} {
		req, err := http.NewRequest(method, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s /v1/verdict: status %d, want 405", method, resp.StatusCode)
		}
	}
	if st := svc.Status(); st.CacheEntries != 0 {
		t.Fatalf("rejected verdict requests reached the service: %d cache entries", st.CacheEntries)
	}
	resp, err := srv.Client().Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/verdict: status %d, want 200", resp.StatusCode)
	}
}

// TestHTTPTransportReusesConnAfterVerdictError asserts failing verdict
// calls leave their keep-alive connection reusable: with the service down,
// every call gets a 503, and all of them must share one TCP connection.
func TestHTTPTransportReusesConnAfterVerdictError(t *testing.T) {
	svc := NewService(ServiceConfig{Judge: testJudge(nil)})
	svc.Crash()
	srv := httptest.NewUnstartedServer(NewHTTPHandler(svc, 0, nil))
	var conns atomic.Int64
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)

	tr := &HTTPTransport{Base: srv.URL, Client: srv.Client()}
	const calls = 5
	for i := 0; i < calls; i++ {
		var callErr error
		tr.Invoke(&Request{Op: OpVerdict, Key: farKey}, func(_ *Response, err error) { callErr = err })
		if callErr == nil {
			t.Fatalf("verdict %d from a crashed service succeeded", i)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("%d failing verdict calls opened %d connections, want 1", calls, n)
	}
}

// httpPaths are the mapd endpoints FuzzHTTPHandler drives.
var httpPaths = []string{"/v1/ingest", "/v1/verdict", "/v1/invalidate"}

// FuzzHTTPHandler sends fuzzed methods, queries and bodies to the mapd
// ingest, verdict and invalidate endpoints. No input may panic the
// handler or draw a status other than 200, 400, 405, 413 or 503, and a
// rejected ingest must leave the ingest count unchanged.
func FuzzHTTPHandler(f *testing.F) {
	ingest := EncodeRecords(testTopologyRecords(time.Second))
	f.Add("POST", uint8(0), "", ingest)
	f.Add("POST", uint8(0), "", ingest[:len(ingest)-1])
	f.Add("GET", uint8(0), "", ingest)
	f.Add("GET", uint8(1), "obs=3&src=1&dst=2&mydst=4", []byte(nil))
	f.Add("GET", uint8(1), "obs=3&src=1&dst=2&mydst=70000", []byte(nil))
	f.Add("POST", uint8(2), "node=2", []byte(nil))
	f.Add("POST", uint8(2), "all=1", []byte(nil))
	f.Add("POST", uint8(2), "all=0", []byte(nil))
	f.Add("DELETE", uint8(2), "node=x", []byte("x"))
	f.Add("POST", uint8(0), "", EncodeRecords(reportBatch(0, 1<<16+1)))
	f.Fuzz(func(t *testing.T, method string, path uint8, query string, body []byte) {
		svc := NewService(ServiceConfig{Judge: testJudge(nil), Store: NewMemStore()})
		if err := svc.ApplyCtx(testTopologyRecords(0), CallContext{}); err != nil {
			t.Fatal(err)
		}
		h := NewHTTPHandler(svc, 0, slo.NewTracker(func() time.Duration { return 0 }, slo.DefaultObjectives()...))
		p := httpPaths[int(path)%len(httpPaths)]
		req, err := http.NewRequest(method, "http://mapd"+p+"?"+query, bytes.NewReader(body))
		if err != nil || req.URL.Path != p {
			return // not a request a client could send to this endpoint
		}
		before := svc.Status().Ingested
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusMethodNotAllowed,
			http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("%s %s?%s: status %d", method, p, query, rec.Code)
		}
		if p == "/v1/ingest" && rec.Code != http.StatusOK {
			if after := svc.Status().Ingested; after != before {
				t.Fatalf("rejected ingest (status %d) moved Ingested %d -> %d", rec.Code, before, after)
			}
		}
	})
}
