// Package comap implements CO-MAP, the paper's primary contribution: a
// location-driven framework that detects exposed and hidden terminals and
// improves multiple-access efficiency.
//
// The pipeline follows the paper's Fig. 5: positions (a loc.Provider feeding
// the neighbor table) → pairwise packet-reception ratios (the PRR table,
// eq. 3) → the co-occurrence map consulted at channel-access time. On the
// hidden-terminal side, the Agent counts potential hidden terminals with
// eq. 4 and picks the goodput-optimal (contention window, packet size) from
// a precomputed bianchi.AdaptationTable.
package comap

import (
	"fmt"

	"repro/internal/frame"
	"repro/internal/loc"
	"repro/internal/radio"
)

// Model bundles the radio-analysis parameters CO-MAP uses to convert
// positions into interference relations (paper §IV-B).
type Model struct {
	// Prop is the log-normal shadowing propagation model.
	Prop radio.LogNormal
	// TxPowerDBm is the (common) transmit power of all nodes.
	TxPowerDBm float64
	// TSIRdB is the SIR decoding threshold used for validation. CO-MAP uses
	// the lowest data rate's threshold: conservative, because a node that
	// qualifies as an ET at the lowest rate can always transmit concurrently
	// at some rate.
	TSIRdB float64
	// TPRR is the packet-reception-rate threshold above which concurrent
	// transmission is considered harmless (0.95 in Table I).
	TPRR float64
	// TcsDBm is the carrier-sense threshold used for hidden-terminal
	// detection.
	TcsDBm float64
	// CSMissProb is the probability cut-off above which a neighbor counts as
	// hidden (0.9 in the paper).
	CSMissProb float64
	// HTImpactPRR is the link-PRR level below which an interferer is severe
	// enough to count as a hidden terminal for the packet-size/CW
	// adaptation. Zero falls back to TPRR. Using a harsher level than TPRR
	// (e.g. 0.5) keeps the adaptation from throttling the link over
	// marginal interferers that the concurrency validation must still treat
	// conservatively.
	HTImpactPRR float64
	// SensitivityDBm is the receive sensitivity at the lowest rate, used to
	// derive the communication range for the 2-hop neighborhood bound.
	SensitivityDBm float64
}

// ErrUnknownPosition is returned when a node involved in a computation has
// no reported position.
type ErrUnknownPosition struct {
	ID frame.NodeID
}

// Error implements error.
func (e *ErrUnknownPosition) Error() string {
	return fmt.Sprintf("comap: no reported position for node %d", e.ID)
}

// LinkPRRUnder returns the PRR of the link src→dst while interferer
// transmits concurrently, from reported positions (eq. 3 with d =
// |src,dst| and r = |interferer,dst|).
func (m Model) LinkPRRUnder(p loc.Provider, src, dst, interferer frame.NodeID) (float64, error) {
	ps, ok := p.Position(src)
	if !ok {
		return 0, &ErrUnknownPosition{ID: src}
	}
	pd, ok := p.Position(dst)
	if !ok {
		return 0, &ErrUnknownPosition{ID: dst}
	}
	pi, ok := p.Position(interferer)
	if !ok {
		return 0, &ErrUnknownPosition{ID: interferer}
	}
	d := ps.DistanceTo(pd)
	r := pi.DistanceTo(pd)
	return m.Prop.PRR(m.TSIRdB, d, r), nil
}

// Coexist implements the paper's concurrency validation (§IV-C1): the links
// ongoingSrc→ongoingDst and mySrc→myDst may run concurrently iff
//
//  1. my transmission leaves the ongoing reception above T_PRR
//     (d1 = |ongoingSrc, ongoingDst|, r1 = |mySrc, ongoingDst|), and
//  2. the ongoing transmission leaves my reception above T_PRR
//     (d2 = |mySrc, myDst|, r2 = |ongoingSrc, myDst|).
//
// Unknown positions fail validation (no concurrency without location input).
func (m Model) Coexist(p loc.Provider, ongoingSrc, ongoingDst, mySrc, myDst frame.NodeID) bool {
	prr1, err := m.LinkPRRUnder(p, ongoingSrc, ongoingDst, mySrc)
	if err != nil || prr1 < m.TPRR {
		return false
	}
	prr2, err := m.LinkPRRUnder(p, mySrc, myDst, ongoingSrc)
	if err != nil || prr2 < m.TPRR {
		return false
	}
	return true
}

// IsHiddenTerminal reports whether node x is a potential hidden terminal of
// the link src→dst (§IV-D1): x can push the link's PRR below T_PRR when
// transmitting concurrently, and x misses src's signal by carrier sense with
// probability above CSMissProb.
func (m Model) IsHiddenTerminal(p loc.Provider, src, dst, x frame.NodeID) bool {
	if x == src || x == dst {
		return false
	}
	threshold := m.HTImpactPRR
	if threshold == 0 {
		threshold = m.TPRR
	}
	prr, err := m.LinkPRRUnder(p, src, dst, x)
	if err != nil || prr >= threshold {
		return false
	}
	ps, ok := p.Position(src)
	if !ok {
		return false
	}
	px, ok := p.Position(x)
	if !ok {
		return false
	}
	miss := m.Prop.ProbBelowCS(m.TcsDBm, m.TxPowerDBm, ps.DistanceTo(px))
	return miss > m.CSMissProb
}

// HiddenTerminals returns the candidates that qualify as hidden terminals of
// src→dst.
func (m Model) HiddenTerminals(p loc.Provider, src, dst frame.NodeID, candidates []frame.NodeID) []frame.NodeID {
	var out []frame.NodeID
	for _, x := range candidates {
		if m.IsHiddenTerminal(p, src, dst, x) {
			out = append(out, x)
		}
	}
	return out
}

// IsContender reports whether node x shares src's channel: x likely senses
// src's transmissions by carrier sense (the complement of the
// hidden-terminal CS condition).
func (m Model) IsContender(p loc.Provider, src, x frame.NodeID) bool {
	if x == src {
		return false
	}
	ps, ok := p.Position(src)
	if !ok {
		return false
	}
	px, ok := p.Position(x)
	if !ok {
		return false
	}
	miss := m.Prop.ProbBelowCS(m.TcsDBm, m.TxPowerDBm, ps.DistanceTo(px))
	return miss <= m.CSMissProb
}

// Contenders returns the candidates that contend with src on the channel.
func (m Model) Contenders(p loc.Provider, src frame.NodeID, candidates []frame.NodeID) []frame.NodeID {
	var out []frame.NodeID
	for _, x := range candidates {
		if m.IsContender(p, src, x) {
			out = append(out, x)
		}
	}
	return out
}

// CommunicationRange is R_t: the mean distance at which the signal reaches
// the lowest rate's sensitivity.
func (m Model) CommunicationRange() float64 {
	return m.Prop.MeanRangeFor(m.TxPowerDBm, m.SensitivityDBm)
}

// PRRTableEntry is one row of the PRR table of Fig. 5: the mutual PRRs of
// this node's link and one neighbor's transmission.
type PRRTableEntry struct {
	Neighbor frame.NodeID
	// PRROfOngoing is the PRR of the neighbor's reception if we transmit.
	PRROfOngoing float64
	// PRROfMine is the PRR of our reception if the neighbor transmits.
	PRROfMine float64
}

// PRRTable computes the node's PRR table against each (neighborSrc,
// neighborDst) link for our link me→myDst. Entries with unknown positions
// are skipped.
func (m Model) PRRTable(p loc.Provider, me, myDst frame.NodeID, links []Link) []PRRTableEntry {
	out := make([]PRRTableEntry, 0, len(links))
	for _, l := range links {
		prr1, err1 := m.LinkPRRUnder(p, l.Src, l.Dst, me)
		prr2, err2 := m.LinkPRRUnder(p, me, myDst, l.Src)
		if err1 != nil || err2 != nil {
			continue
		}
		out = append(out, PRRTableEntry{Neighbor: l.Src, PRROfOngoing: prr1, PRROfMine: prr2})
	}
	return out
}
