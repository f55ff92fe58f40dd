package benchscn

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
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
)

// mapsvcIngest saturates the CO-MAP control-plane server (the exact stack
// comap-mapd runs: mapsvc.Service behind mapsvc.NewHTTPHandler on an
// obs.Server listener) with a concurrent binary fix stream over real
// loopback HTTP, node-churn invalidations racing the ingest, and verdict
// readers measuring tail latency through mapsvc.HTTPTransport. One
// iteration drives the load for a wall-clock window of etDuration and
// reports:
//
//	fixes_per_sec  — accepted ingest records per second (target >= 1M/s)
//	verdict_p99_us — p99 verdict latency under ingest+churn load
//	shed_pct       — percent of offered records shed by admission control
func mapsvcIngest() Scenario {
	const (
		batchRecords = 2048
		nodeSpace    = 4096
	)
	return Scenario{
		Name: "mapsvc-ingest",
		Prepare: func() (func() (Metrics, error), error) {
			no := netsim.NS2Options()
			start := time.Now()
			svc := mapsvc.NewService(mapsvc.ServiceConfig{
				Judge: comap.Judge{Model: no.ComapModel, Rates: no.PHY.Rates},
				Now:   func() time.Duration { return time.Since(start) },
			})
			if err := svc.Recover(); err != nil {
				return nil, err
			}
			admin := obs.NewServer(obs.Options{})
			admin.Handle("/v1/", mapsvc.NewHTTPHandler(svc, 0, nil))
			addr, err := admin.Start("127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			base := "http://" + addr
			workers := runtime.GOMAXPROCS(0)
			if workers < 4 {
				workers = 4
			}
			hc := &http.Client{
				Timeout: 5 * time.Second,
				Transport: &http.Transport{
					MaxIdleConns:        workers + 8,
					MaxIdleConnsPerHost: workers + 8,
				},
			}

			// Pre-encode rotating ingest bodies per worker: distinct node
			// ranges and positions per rotation, so replays keep moving
			// stations (and invalidating their cached verdicts) without
			// paying encode cost inside the measured window.
			bodies := make([][][]byte, workers)
			for w := range bodies {
				bodies[w] = make([][]byte, 4)
				for bi := range bodies[w] {
					recs := make([]mapsvc.IngestRecord, batchRecords)
					for i := range recs {
						node := 1 + (w*batchRecords+i*131)%nodeSpace
						recs[i] = mapsvc.IngestRecord{
							Op:   mapsvc.RecReport,
							Node: frame.NodeID(node),
							Fix: loc.Fix{
								Pos:               geom.Pt(float64((node*7+bi*13)%500), float64((node*11+bi*17)%500)),
								ReportedAt:        time.Second,
								ErrorRadiusMeters: 2,
							},
						}
					}
					bodies[w][bi] = mapsvc.EncodeRecords(recs)
				}
			}

			return func() (Metrics, error) {
				var accepted, shed, failed int64
				var stop atomic.Bool
				var wg sync.WaitGroup

				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; !stop.Load(); i++ {
							resp, err := hc.Post(base+"/v1/ingest", "application/octet-stream",
								bytes.NewReader(bodies[w][i%len(bodies[w])]))
							if err != nil {
								atomic.AddInt64(&failed, 1)
								continue
							}
							io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
							resp.Body.Close()
							switch resp.StatusCode {
							case http.StatusOK:
								atomic.AddInt64(&accepted, batchRecords)
							case http.StatusServiceUnavailable:
								atomic.AddInt64(&shed, batchRecords)
							default:
								atomic.AddInt64(&failed, 1)
							}
						}
					}(w)
				}

				// Churn: cycle per-node invalidations through the whole node
				// space, racing the ingest stream's cache fills.
				wg.Add(1)
				go func() {
					defer wg.Done()
					for n := 1; !stop.Load(); n++ {
						resp, err := hc.Post(fmt.Sprintf("%s/v1/invalidate?node=%d", base, 1+n%nodeSpace), "", nil)
						if err == nil {
							io.Copy(io.Discard, resp.Body) //nolint:errcheck
							resp.Body.Close()
						}
						time.Sleep(2 * time.Millisecond)
					}
				}()

				// Verdict readers: tail latency through the same transport
				// the simulator's remote client uses.
				var latMu sync.Mutex
				lats := make([]time.Duration, 0, 4096)
				for v := 0; v < 2; v++ {
					wg.Add(1)
					go func(v int) {
						defer wg.Done()
						tr := &mapsvc.HTTPTransport{Base: base, Client: hc}
						for i := 0; !stop.Load(); i++ {
							key := mapsvc.Key{
								Observer: frame.NodeID(1 + (v*997+i)%nodeSpace),
								Ongoing: comap.Link{
									Src: frame.NodeID(1 + (i*3)%nodeSpace),
									Dst: frame.NodeID(1 + (i*5+1)%nodeSpace),
								},
								MyDst: frame.NodeID(1 + (i*7+2)%nodeSpace),
							}
							var callErr error
							t0 := time.Now()
							tr.Invoke(&mapsvc.Request{Op: mapsvc.OpVerdict, Key: key},
								func(_ *mapsvc.Response, err error) { callErr = err })
							d := time.Since(t0)
							if callErr != nil {
								atomic.AddInt64(&failed, 1)
								continue
							}
							latMu.Lock()
							lats = append(lats, d)
							latMu.Unlock()
						}
					}(v)
				}

				t0 := time.Now()
				time.Sleep(etDuration)
				stop.Store(true)
				wg.Wait()
				elapsed := time.Since(t0)

				acc, sh := atomic.LoadInt64(&accepted), atomic.LoadInt64(&shed)
				if acc == 0 {
					return nil, fmt.Errorf("no ingest records accepted (%d failed calls)", atomic.LoadInt64(&failed))
				}
				if len(lats) == 0 {
					return nil, fmt.Errorf("no verdicts served")
				}
				sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
				p99 := lats[len(lats)*99/100]
				m := Metrics{
					"fixes_per_sec":  float64(acc) / elapsed.Seconds(),
					"verdict_p99_us": float64(p99.Microseconds()),
					"shed_pct":       100 * float64(sh) / float64(acc+sh),
				}
				return m, nil
			}, nil
		},
	}
}
