// Package bianchi implements the analytical model of paper §IV-D2: Bianchi's
// saturation model of the 802.11 DCF with a constant contention window,
// extended to account for hidden terminals (eqs. 5–9). CO-MAP consults this
// model to pick the packet size and contention window that maximise goodput
// for a given number of hidden terminals and contenders, precomputed into a
// two-dimensional adaptation table.
package bianchi

import (
	"errors"
	"math"
	"time"

	"repro/internal/phy"
)

// Params describes one modelled link and its contention environment.
type Params struct {
	// Slot is the empty backoff slot duration (the model's sigma).
	Slot time.Duration
	// SIFS and DIFS are the interframe spaces.
	SIFS time.Duration
	DIFS time.Duration
	// HeaderTime is the airtime of the PHY preamble/PLCP plus the MAC header
	// (the model's T_HDR).
	HeaderTime time.Duration
	// ACKTime is the ACK frame airtime at the basic rate.
	ACKTime time.Duration
	// DataRate is the payload bit rate in bits per second.
	DataRate float64
	// W is the constant contention window in slots: the backoff counter is
	// uniform on [0, W-1], giving tau = 2/(W+1).
	W int
	// Contenders is c: the number of other stations whose transmissions the
	// modelled node can carrier-sense.
	Contenders int
	// Hidden is h: the number of hidden terminals of the modelled link.
	Hidden int
}

// FromPHY fills the timing fields of a Params from a PHY parameter set and
// data rate, leaving W/Contenders/Hidden for the caller.
func FromPHY(p phy.Params, r phy.Rate) Params {
	return Params{
		Slot:       p.SlotTime,
		SIFS:       p.SIFS,
		DIFS:       p.DIFS(),
		HeaderTime: p.PreambleHeader + p.PayloadAirtime(r, phy.MACHeaderBytes),
		ACKTime:    p.ACKAirtime(),
		DataRate:   r.BitsPerSec,
	}
}

// ErrInvalidParams is returned when the model parameters are inconsistent.
var ErrInvalidParams = errors.New("bianchi: invalid parameters")

// Validate checks the parameters for model applicability.
func (p Params) Validate() error {
	if p.W < 1 || p.Contenders < 0 || p.Hidden < 0 || p.DataRate <= 0 || p.Slot <= 0 {
		return ErrInvalidParams
	}
	return nil
}

// Tau is the per-slot transmission probability of a saturated station with a
// constant contention window W: tau = 2/(W+1).
func (p Params) Tau() float64 { return 2 / (float64(p.W) + 1) }

// payloadTime returns the airtime of payloadBytes of payload at the data
// rate (no symbol rounding: the model is continuous).
func (p Params) payloadTime(payloadBytes int) time.Duration {
	bits := float64(payloadBytes * 8)
	return time.Duration(bits / p.DataRate * float64(time.Second))
}

// SuccessTime is T_s: header + payload + SIFS + ACK + DIFS.
func (p Params) SuccessTime(payloadBytes int) time.Duration {
	return p.HeaderTime + p.payloadTime(payloadBytes) + p.SIFS + p.ACKTime + p.DIFS
}

// CollisionTime is T_c: header + payload + DIFS (no ACK comes back).
func (p Params) CollisionTime(payloadBytes int) time.Duration {
	return p.HeaderTime + p.payloadTime(payloadBytes) + p.DIFS
}

// SlotLength is E[slot length] (the denominator of eq. 5): the expected
// duration of one virtual slot as seen by the contending set, assuming all
// nodes use the same payload length.
func (p Params) SlotLength(payloadBytes int) time.Duration {
	tau := p.Tau()
	ptr := 1 - math.Pow(1-tau, float64(p.Contenders)+1)
	if ptr == 0 {
		return p.Slot
	}
	ps := (float64(p.Contenders) + 1) * tau * math.Pow(1-tau, float64(p.Contenders)) / ptr
	ts := p.SuccessTime(payloadBytes).Seconds()
	tc := p.CollisionTime(payloadBytes).Seconds()
	e := (1-ptr)*p.Slot.Seconds() + ptr*ps*ts + ptr*(1-ps)*tc
	return time.Duration(e * float64(time.Second))
}

// HiddenSlotLength is the expected duration of one backoff slot as perceived
// by a hidden terminal of the modelled link: σ + τ·T_s. A hidden terminal
// cannot carrier-sense the modelled node, so during the node's frame it sees
// idle slots (σ) interleaved only with its own transmissions (probability τ
// per slot, each occupying T_s).
//
// Note: the paper's eq. (9) writes k = (T_s+T_i)/E[Slot length] with the
// contention-domain slot of eq. (5); that slot length is itself proportional
// to the payload airtime in saturation, which makes k nearly constant in the
// payload and cannot yield the interior packet-size optimum of the paper's
// Figs. 2 and 7. Measuring the vulnerable window in the hidden terminal's
// own virtual slots (this function) restores the renewal-process behaviour —
// the per-frame collision probability grows with channel occupancy time —
// and matches both the paper's qualitative results and our simulator.
func (p Params) HiddenSlotLength(payloadBytes int) time.Duration {
	ts := p.SuccessTime(payloadBytes).Seconds()
	return time.Duration((p.Slot.Seconds() + p.Tau()*ts) * float64(time.Second))
}

// SuccessProbability is P_s^i of eq. (9): the probability that a randomly
// chosen slot carries a successful transmission of the modelled node,
// requiring (a) the node transmits, (b) none of its c contenders transmits in
// the same slot, and (c) none of its h hidden terminals transmits during the
// vulnerable window of k hidden-terminal slots around the frame.
func (p Params) SuccessProbability(payloadBytes int) float64 {
	tau := p.Tau()
	base := tau * math.Pow(1-tau, float64(p.Contenders))
	if p.Hidden == 0 {
		return base
	}
	htSlot := p.HiddenSlotLength(payloadBytes).Seconds()
	if htSlot <= 0 {
		return 0
	}
	// k = (T_s + T_i)/E_ht[slot]; homogeneous packet lengths make T_i = T_s.
	k := 2 * p.SuccessTime(payloadBytes).Seconds() / htSlot
	return base * math.Pow(math.Pow(1-tau, float64(p.Hidden)), k)
}

// Goodput is eq. (5): the modelled link's goodput in bits per second for the
// given payload size.
func (p Params) Goodput(payloadBytes int) float64 {
	if err := p.Validate(); err != nil {
		return 0
	}
	if payloadBytes <= 0 {
		return 0
	}
	eSlot := p.SlotLength(payloadBytes).Seconds()
	if eSlot <= 0 {
		return 0
	}
	return p.SuccessProbability(payloadBytes) * float64(payloadBytes*8) / eSlot
}

// Setting is one (contention window, payload) operating point and its
// modelled goodput.
type Setting struct {
	W            int
	PayloadBytes int
	GoodputBps   float64
}

// DefaultWindows is the contention-window search grid (powers of two minus
// one, the values hardware supports).
var DefaultWindows = []int{15, 31, 63, 127, 255, 511, 1023}

// DefaultPayloads returns the payload search grid: 50..1500 bytes in steps
// of 50.
func DefaultPayloads() []int {
	out := make([]int, 0, 30)
	for l := 50; l <= 1500; l += 50 {
		out = append(out, l)
	}
	return out
}

// OptimalSetting searches the (W, payload) grid for the operating point with
// the highest modelled goodput, given base's timing/contention parameters.
// Empty grids select the defaults.
func OptimalSetting(base Params, windows, payloads []int) Setting {
	if len(windows) == 0 {
		windows = DefaultWindows
	}
	if len(payloads) == 0 {
		payloads = DefaultPayloads()
	}
	var best Setting
	for _, w := range windows {
		p := base
		p.W = w
		for _, l := range payloads {
			if g := p.Goodput(l); g > best.GoodputBps {
				best = Setting{W: w, PayloadBytes: l, GoodputBps: g}
			}
		}
	}
	return best
}

// AdaptationTable is the paper's precomputed 2-D array: the element at row h
// and column c is the best (CW, packet size) for a node with h hidden
// terminals and c contending nodes.
type AdaptationTable struct {
	settings [][]Setting
}

// NewAdaptationTable computes the table for h in [0, maxHidden] and c in
// [0, maxContenders] over the given grids (empty grids use defaults).
func NewAdaptationTable(base Params, maxHidden, maxContenders int, windows, payloads []int) *AdaptationTable {
	t := &AdaptationTable{settings: make([][]Setting, maxHidden+1)}
	for h := 0; h <= maxHidden; h++ {
		t.settings[h] = make([]Setting, maxContenders+1)
		for c := 0; c <= maxContenders; c++ {
			p := base
			p.Hidden = h
			p.Contenders = c
			t.settings[h][c] = OptimalSetting(p, windows, payloads)
		}
	}
	return t
}

// Lookup returns the best setting for the given hidden-terminal and
// contender counts, clamping out-of-range values to the table edge (more
// hidden terminals than modelled still get the most conservative entry).
func (t *AdaptationTable) Lookup(hidden, contenders int) Setting {
	h := clamp(hidden, 0, len(t.settings)-1)
	row := t.settings[h]
	c := clamp(contenders, 0, len(row)-1)
	return row[c]
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
