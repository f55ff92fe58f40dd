package mapsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/comap"
	"repro/internal/frame"
	"repro/internal/slo"
)

// Causal-context headers: the client's CallContext travels with every call
// so server-side events join their client-side attempts.
const (
	HeaderRun     = "X-Comap-Run"
	HeaderReq     = "X-Comap-Req"
	HeaderAttempt = "X-Comap-Attempt"
)

// ctxFromHeaders recovers the caller's causal context; absent headers
// yield the zero context (an untraced caller).
func ctxFromHeaders(r *http.Request) CallContext {
	ctx := CallContext{Run: r.Header.Get(HeaderRun)}
	if v := r.Header.Get(HeaderReq); v != "" {
		ctx.Req, _ = strconv.ParseUint(v, 10, 64)
	}
	if v := r.Header.Get(HeaderAttempt); v != "" {
		ctx.Attempt, _ = strconv.Atoi(v)
	}
	return ctx
}

// StatusWithSLO is the /v1/status payload: the service counters plus, when
// a tracker is attached, the per-endpoint SLO snapshot.
type StatusWithSLO struct {
	ServiceStatus
	SLO *slo.Status `json:"slo,omitempty"`
}

// NewHTTPHandler exposes the service over HTTP for cmd/comap-mapd:
//
//	POST /v1/ingest      body: concatenated binary IngestRecords
//	GET  /v1/verdict     ?obs=&src=&dst=&mydst=   → JSON verdict + epoch
//	POST /v1/invalidate  ?node=N or ?all=1
//	GET  /v1/status      → ServiceStatus JSON (+ SLO block when tracked)
//
// maxPendingIngest bounds concurrently admitted ingest requests: beyond it
// the handler sheds with 503 before the batch is decoded, so verdict
// traffic keeps its capacity under ingest overload (admission control
// protects reads from writes, not the reverse).
//
// Requests carrying X-Comap-Run/Req/Attempt headers have their causal
// context forwarded to the service's event stream. tracker (optional)
// observes every endpoint's wall-clock latency and outcome — sheds and
// unavailability count against the error budget.
func NewHTTPHandler(svc *Service, maxPendingIngest int, tracker *slo.Tracker) http.Handler {
	if maxPendingIngest <= 0 {
		maxPendingIngest = 64
	}
	sem := make(chan struct{}, maxPendingIngest)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ingest", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		start := time.Now()
		ctx := ctxFromHeaders(r)
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
		default:
			svc.noteShed(1, ctx)
			tracker.Observe(OpName(OpIngest), time.Since(start), false)
			http.Error(w, "ingest shed: admission control full", http.StatusServiceUnavailable)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		recs, err := DecodeRecords(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := svc.ApplyCtx(recs, ctx); err != nil {
			tracker.Observe(OpName(OpIngest), time.Since(start), false)
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		tracker.Observe(OpName(OpIngest), time.Since(start), true)
		writeHTTPJSON(w, map[string]any{"ingested": len(recs), "epoch": svc.Epoch()})
	})
	mux.HandleFunc("/v1/verdict", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		key, err := keyFromQuery(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		start := time.Now()
		v, err := svc.VerdictForCtx(key, ctxFromHeaders(r))
		if err != nil {
			tracker.Observe(OpName(OpVerdict), time.Since(start), false)
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		tracker.Observe(OpName(OpVerdict), time.Since(start), true)
		writeHTTPJSON(w, map[string]any{"verdict": v, "epoch": svc.Epoch()})
	})
	mux.HandleFunc("/v1/invalidate", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		start := time.Now()
		ctx := ctxFromHeaders(r)
		if all, ok := r.URL.Query()["all"]; ok {
			if len(all) != 1 || all[0] != "1" {
				http.Error(w, fmt.Sprintf("bad all %q: only a single all=1 is accepted", all), http.StatusBadRequest)
				return
			}
			svc.InvalidateAllCtx(ctx)
			tracker.Observe(OpName(OpInvalidateAll), time.Since(start), !svc.Down())
		} else {
			node, err := nodeParam(r, "node")
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			svc.InvalidateNodeCtx(node, ctx)
			tracker.Observe(OpName(OpInvalidateNode), time.Since(start), !svc.Down())
		}
		writeHTTPJSON(w, map[string]any{"epoch": svc.Epoch()})
	})
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		st := StatusWithSLO{ServiceStatus: svc.Status()}
		if tracker != nil {
			s := tracker.Status()
			st.SLO = &s
		}
		writeHTTPJSON(w, st)
	})
	return mux
}

func keyFromQuery(r *http.Request) (Key, error) {
	obs, err1 := nodeParam(r, "obs")
	src, err2 := nodeParam(r, "src")
	dst, err3 := nodeParam(r, "dst")
	myDst, err4 := nodeParam(r, "mydst")
	for _, err := range []error{err1, err2, err3, err4} {
		if err != nil {
			return Key{}, err
		}
	}
	return Key{Observer: obs, Ongoing: comap.Link{Src: src, Dst: dst}, MyDst: myDst}, nil
}

func nodeParam(r *http.Request, name string) (frame.NodeID, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	n, err := strconv.ParseUint(v, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q: %v", name, v, err)
	}
	return frame.NodeID(n), nil
}

func writeHTTPJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// HTTPTransport runs the same Client against a real comap-mapd over HTTP.
// Calls are synchronous (Invoke blocks and completes inline); the HTTP
// client's own timeout doubles as the transport-level deadline.
type HTTPTransport struct {
	// Base is the server root, e.g. "http://127.0.0.1:9090".
	Base string
	// Client is the HTTP client (http.DefaultClient when nil); set its
	// Timeout to bound calls.
	Client *http.Client
}

// Invoke implements Transport over HTTP.
func (t *HTTPTransport) Invoke(req *Request, done func(*Response, error)) bool {
	resp, err := t.do(req)
	done(resp, err)
	return true
}

// roundTrip issues one HTTP request with the call's causal context in the
// X-Comap-* headers.
func (t *HTTPTransport) roundTrip(hc *http.Client, method, url, contentType string, body io.Reader, ctx CallContext) (*http.Response, error) {
	hreq, err := http.NewRequest(method, url, body)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		hreq.Header.Set("Content-Type", contentType)
	}
	if ctx.Run != "" {
		hreq.Header.Set(HeaderRun, ctx.Run)
	}
	if ctx.Req != 0 {
		hreq.Header.Set(HeaderReq, strconv.FormatUint(ctx.Req, 10))
		hreq.Header.Set(HeaderAttempt, strconv.Itoa(ctx.Attempt))
	}
	return hc.Do(hreq)
}

func (t *HTTPTransport) do(req *Request) (*Response, error) {
	hc := t.Client
	if hc == nil {
		hc = http.DefaultClient
	}
	var (
		httpResp *http.Response
		err      error
	)
	switch req.Op {
	case OpVerdict:
		url := fmt.Sprintf("%s/v1/verdict?obs=%d&src=%d&dst=%d&mydst=%d",
			t.Base, req.Key.Observer, req.Key.Ongoing.Src, req.Key.Ongoing.Dst, req.Key.MyDst)
		httpResp, err = t.roundTrip(hc, http.MethodGet, url, "", nil, req.Ctx)
		if err != nil {
			return nil, err
		}
		defer httpResp.Body.Close()
		if httpResp.StatusCode != http.StatusOK {
			// Drain so the keep-alive connection can be reused.
			io.Copy(io.Discard, httpResp.Body)
			return nil, fmt.Errorf("mapsvc: verdict: HTTP %d", httpResp.StatusCode)
		}
		var out struct {
			Verdict Verdict `json:"verdict"`
			Epoch   uint64  `json:"epoch"`
		}
		if err := json.NewDecoder(httpResp.Body).Decode(&out); err != nil {
			return nil, err
		}
		return &Response{Verdict: out.Verdict, Epoch: out.Epoch}, nil
	case OpIngest:
		httpResp, err = t.roundTrip(hc, http.MethodPost, t.Base+"/v1/ingest",
			"application/octet-stream", bytes.NewReader(EncodeRecords(req.Recs)), req.Ctx)
	case OpInvalidateNode:
		httpResp, err = t.roundTrip(hc, http.MethodPost,
			fmt.Sprintf("%s/v1/invalidate?node=%d", t.Base, req.Node), "", nil, req.Ctx)
	default:
		return nil, fmt.Errorf("mapsvc: unknown op %d", req.Op)
	}
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, httpResp.Body)
		return nil, fmt.Errorf("mapsvc: op %d: HTTP %d", req.Op, httpResp.StatusCode)
	}
	var out struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &Response{Epoch: out.Epoch}, nil
}
