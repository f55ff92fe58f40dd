package metrics

import (
	"sync"
	"time"

	"repro/internal/sim"
)

// Series is a time series filled in by a Sampler at fixed intervals. Safe
// for concurrent readers: the sampler appends from the simulation goroutine
// while live scrapes copy the accumulated points.
type Series struct {
	mu     sync.Mutex
	at     []time.Duration
	values []float64
}

// append records one observation.
func (s *Series) append(t time.Duration, v float64) {
	s.mu.Lock()
	s.at = append(s.at, t)
	s.values = append(s.values, v)
	s.mu.Unlock()
}

// Samples returns copies of the time and value columns.
func (s *Series) Samples() ([]time.Duration, []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	at := make([]time.Duration, len(s.at))
	copy(at, s.at)
	values := make([]float64, len(s.values))
	copy(values, s.values)
	return at, values
}

// Sampler periodically evaluates registered probe functions on the
// simulation engine's virtual clock. Ticks fire at interval, 2·interval, …
// relative to Start; probes run inside the simulation loop and must not
// mutate protocol state.
type Sampler struct {
	eng      *sim.Engine
	interval time.Duration
	probes   []func() float64
	series   []*Series
	ev       sim.Handle
}

// NewSampler creates a sampler on eng firing every interval (which must be
// positive; NewSampler panics otherwise, as a zero interval would wedge the
// event loop).
func NewSampler(eng *sim.Engine, interval time.Duration) *Sampler {
	if interval <= 0 {
		panic("metrics: non-positive sampler interval")
	}
	return &Sampler{eng: eng, interval: interval}
}

// Interval returns the sampling period.
func (s *Sampler) Interval() time.Duration { return s.interval }

// Track registers a probe evaluated on every tick; its values accumulate in
// the returned Series. Register before Start.
func (s *Sampler) Track(probe func() float64) *Series {
	ser := &Series{}
	s.probes = append(s.probes, probe)
	s.series = append(s.series, ser)
	return ser
}

// Start schedules the first tick one interval from now. Starting an already
// started sampler is a no-op.
func (s *Sampler) Start() {
	if s.ev.Active() {
		return
	}
	s.schedule()
}

func (s *Sampler) schedule() {
	s.ev = s.eng.AfterTagged(s.interval, sim.TagSampler, sim.NoOwner, func() {
		s.ev = sim.Handle{}
		now := s.eng.Now()
		for i, probe := range s.probes {
			s.series[i].append(now, probe())
		}
		s.schedule()
	})
}
