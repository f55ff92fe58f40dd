package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// workerCount resolves Opts.Workers: 0 means one worker per CPU, and tracing
// forces a single worker because distinct grid points of one figure can share
// a trace filename (e.g. the Fig. 2 payload sweep reuses <topology>-<protocol>-
// seed<N>.jsonl across payloads), which concurrent runs would corrupt.
// AuditDir does not force sequential execution: ledger filenames embed the
// options fingerprint, so no two grid cells can collide.
func (o Opts) workerCount() int {
	if o.TraceDir != "" {
		return 1
	}
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

// runIndexed executes jobs 0..n-1 on up to workers goroutines. Each job owns
// its own index: it must write results only into slot i of a caller-allocated
// slice, so the committed results are identical no matter how the scheduler
// interleaves workers — callers then fold the slots sequentially in index
// order, reproducing the exact arithmetic of the old sequential loops.
// The lowest-index error is returned; once any job fails, workers stop
// picking up new indices.
func runIndexed(workers, n int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := job(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// gridCell is one (topology, options) scenario of a figure grid, run over
// o.Seeds seeds.
type gridCell struct {
	top  topology.Topology
	opts netsim.Options
}

// runGrid executes every cell x seed on the worker pool and returns the
// per-cell, per-seed results as out[cell][seed]. Seed handling matches
// runSeed (seed formula 1000*s+7, optional tracing), and because every run
// is an independent deterministic engine, out is identical for any worker
// count.
func runGrid(o Opts, cells []gridCell) ([][]*netsim.Results, error) {
	out := make([][]*netsim.Results, len(cells))
	for i := range out {
		out[i] = make([]*netsim.Results, o.Seeds)
	}
	err := runIndexed(o.workerCount(), len(cells)*o.Seeds, func(i int) error {
		c, s := i/o.Seeds, i%o.Seeds
		res, err := runSeed(cells[c].top, cells[c].opts, o, s)
		if err != nil {
			return err
		}
		out[c][s] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// meanOverSeeds folds one cell's runs into the mean goodput of flow: sum in
// seed order, divide once.
func meanOverSeeds(runs []*netsim.Results, flow topology.Flow) float64 {
	sum := 0.0
	for _, r := range runs {
		sum += r.Goodput(flow)
	}
	return sum / float64(len(runs))
}
