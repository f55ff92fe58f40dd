// Package rate implements transmit bit-rate selection. Two controllers are
// provided: a fixed-rate controller (the NS-2 Table I configuration) and a
// Minstrel-style sampler, modelling the mac80211 Minstrel algorithm the
// paper's testbed runs ("the default data rate adaptation algorithm in
// MAC80211, Minstrel, is enabled").
package rate

import (
	"math/rand"
	"time"

	"repro/internal/frame"
	"repro/internal/phy"
)

// Controller selects the transmit rate for each destination and learns from
// per-frame success feedback.
type Controller interface {
	// RateFor returns the rate to use for the next data frame to dst.
	RateFor(dst frame.NodeID) phy.Rate
	// Feedback reports whether the frame sent to dst at rate r was
	// acknowledged.
	Feedback(dst frame.NodeID, r phy.Rate, ok bool)
}

// Fixed always returns one rate; Feedback is ignored.
type Fixed struct {
	Rate phy.Rate
}

var _ Controller = Fixed{}

// RateFor implements Controller.
func (f Fixed) RateFor(frame.NodeID) phy.Rate { return f.Rate }

// Feedback implements Controller.
func (f Fixed) Feedback(frame.NodeID, phy.Rate, bool) {}

// Minstrel is a simplified Minstrel controller: it maintains an EWMA success
// probability per (destination, rate), normally transmits at the rate with
// the highest expected throughput (probability × bitrate), and dedicates
// every SampleInterval-th frame to probing a randomly chosen other rate.
type Minstrel struct {
	rates []phy.Rate
	rng   *rand.Rand
	// EWMAWeight is the weight of the newest observation, default 0.1
	// (roughly matching Minstrel's 100 ms smoothing windows).
	ewmaWeight float64
	// sampleInterval is the probe cadence in frames, default 16.
	sampleInterval int
	// frameTime estimates the full channel time of one frame exchange at a
	// rate (preambles, headers, ACK, contention overhead). When set, the
	// expected-throughput metric becomes prob/frameTime — like the real
	// Minstrel, which maximises goodput over airtime rather than raw
	// bitrate, so a reliable slower rate beats a lossy faster one.
	frameTime func(r phy.Rate) time.Duration
	perDst    map[frame.NodeID]*minstrelState
}

var _ Controller = (*Minstrel)(nil)

type minstrelState struct {
	// prob is the EWMA success probability per rate index; rates start
	// optimistic (1.0) so each gets tried.
	prob    []float64
	counter int
	// probing is the rate index currently being probed, or -1.
	probing int
}

// NewMinstrel creates a Minstrel controller over the given rate set, using
// rng for probe selection.
func NewMinstrel(rates []phy.Rate, rng *rand.Rand) *Minstrel {
	if len(rates) == 0 {
		panic("rate: empty rate set")
	}
	rs := make([]phy.Rate, len(rates))
	copy(rs, rates)
	return &Minstrel{
		rates:          rs,
		rng:            rng,
		ewmaWeight:     0.1,
		sampleInterval: 12,
		perDst:         make(map[frame.NodeID]*minstrelState),
	}
}

func (m *Minstrel) state(dst frame.NodeID) *minstrelState {
	s, ok := m.perDst[dst]
	if !ok {
		s = &minstrelState{prob: make([]float64, len(m.rates)), probing: -1}
		for i := range s.prob {
			s.prob[i] = 1
		}
		m.perDst[dst] = s
	}
	return s
}

// RateFor implements Controller.
func (m *Minstrel) RateFor(dst frame.NodeID) phy.Rate {
	s := m.state(dst)
	s.counter++
	best := m.bestIndex(s)
	if m.sampleInterval > 0 && s.counter%m.sampleInterval == 0 && len(m.rates) > 1 {
		// Probe a random rate other than the current best.
		probe := m.rng.Intn(len(m.rates) - 1)
		if probe >= best {
			probe++
		}
		s.probing = probe
		return m.rates[probe]
	}
	s.probing = -1
	return m.rates[best]
}

// SetFrameTime installs the per-rate frame-exchange time estimator (see the
// frameTime field). Call before traffic starts.
func (m *Minstrel) SetFrameTime(fn func(r phy.Rate) time.Duration) { m.frameTime = fn }

// bestIndex returns the rate index with the highest expected throughput.
func (m *Minstrel) bestIndex(s *minstrelState) int {
	best, bestTp := 0, -1.0
	for i, r := range m.rates {
		var tp float64
		if m.frameTime != nil {
			if ft := m.frameTime(r).Seconds(); ft > 0 {
				tp = s.prob[i] / ft
			}
		} else {
			tp = s.prob[i] * r.BitsPerSec
		}
		if tp > bestTp {
			best, bestTp = i, tp
		}
	}
	return best
}

// Feedback implements Controller.
func (m *Minstrel) Feedback(dst frame.NodeID, r phy.Rate, ok bool) {
	s := m.state(dst)
	for i, candidate := range m.rates {
		if candidate.Name == r.Name && candidate.BitsPerSec == r.BitsPerSec {
			obs := 0.0
			if ok {
				obs = 1
			}
			s.prob[i] = (1-m.ewmaWeight)*s.prob[i] + m.ewmaWeight*obs
			return
		}
	}
}
