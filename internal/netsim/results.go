package netsim

import (
	"fmt"
	"io"
	"sort"
)

// Summary aggregates network-wide protocol counters after a run.
type Summary struct {
	// DataTx is the number of data-frame transmissions (including
	// retransmissions), DataRetry the retransmissions alone.
	DataTx, DataRetry int64
	// AckTimeouts counts transmissions that saw no acknowledgement.
	AckTimeouts int64
	// Corrupted counts receptions that failed the SINR threshold.
	Corrupted int64
	// ConcurrentTx counts CO-MAP exposed-terminal transmissions.
	ConcurrentTx int64
	// Opportunities and Abandons count the enhanced-scheduling decisions.
	Opportunities, Abandons int64
	// HeadersTx counts separate discovery-header frames (HeaderFrame mode).
	HeadersTx int64
	// LocationBeacons and LocationBytes count the in-band exchange.
	LocationBeacons int
	LocationBytes   int64
	// PositionReports counts registry updates (oracle or in-band).
	PositionReports int
	// FallbackDCF counts CO-MAP concurrency decisions that fell back to
	// plain DCF because a peer's position health crossed the confidence
	// bound; FallbackAdapt counts links whose packet-size/CW adaptation
	// reverted to defaults for the same reason.
	FallbackDCF, FallbackAdapt int64
}

// Summarize collects the counters of every station.
func (n *Network) Summarize() Summary {
	var s Summary
	for _, st := range n.Stations {
		c := st.MAC.Stats()
		s.DataTx += c.Get("tx.data")
		s.DataRetry += c.Get("tx.retry")
		s.AckTimeouts += c.Get("ack.timeout")
		s.Corrupted += c.Get("rx.corrupt")
		s.ConcurrentTx += c.Get("et.concurrent_tx")
		s.Opportunities += c.Get("et.opportunity")
		s.Abandons += c.Get("et.abandon")
		s.HeadersTx += c.Get("tx.header")
		if st.Locx != nil {
			s.LocationBeacons += st.Locx.BeaconsSent()
			s.LocationBytes += st.Locx.BytesSent()
		}
		s.FallbackDCF += st.Metrics.Counter("comap.fallback.dcf").Value()
		s.FallbackAdapt += st.Metrics.Counter("comap.fallback.adapt").Value()
	}
	s.PositionReports = n.Locs.Updates()
	return s
}

// LossRate is the fraction of data transmissions that timed out.
func (s Summary) LossRate() float64 {
	if s.DataTx == 0 {
		return 0
	}
	return float64(s.AckTimeouts) / float64(s.DataTx)
}

// Print renders the summary as aligned text.
func (s Summary) Print(w io.Writer) {
	fmt.Fprintf(w, "data tx %d (retries %d), ack timeouts %d (%.1f%%), corrupted rx %d\n",
		s.DataTx, s.DataRetry, s.AckTimeouts, s.LossRate()*100, s.Corrupted)
	if s.Opportunities > 0 || s.ConcurrentTx > 0 {
		fmt.Fprintf(w, "exposed-terminal: %d opportunities, %d concurrent tx, %d abandons\n",
			s.Opportunities, s.ConcurrentTx, s.Abandons)
	}
	if s.HeadersTx > 0 {
		fmt.Fprintf(w, "discovery headers: %d frames\n", s.HeadersTx)
	}
	if s.LocationBeacons > 0 {
		fmt.Fprintf(w, "location exchange: %d beacons, %d bytes\n", s.LocationBeacons, s.LocationBytes)
	}
	if s.FallbackDCF > 0 || s.FallbackAdapt > 0 {
		fmt.Fprintf(w, "location-health fallbacks: %d to DCF, %d to default adaptation\n",
			s.FallbackDCF, s.FallbackAdapt)
	}
	fmt.Fprintf(w, "position reports: %d\n", s.PositionReports)
}

// PrintFlows renders per-flow goodput sorted by source then destination.
func (r *Results) PrintFlows(w io.Writer) {
	flows := make([]FlowResult, len(r.Flows))
	copy(flows, r.Flows)
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].Flow.Src != flows[j].Flow.Src {
			return flows[i].Flow.Src < flows[j].Flow.Src
		}
		return flows[i].Flow.Dst < flows[j].Flow.Dst
	})
	for _, f := range flows {
		fmt.Fprintf(w, "%5d -> %-5d %9.3f Mbps\n", f.Flow.Src, f.Flow.Dst, f.GoodputBps/1e6)
	}
	fmt.Fprintf(w, "total %.3f Mbps, mean per flow %.3f Mbps\n", r.Total()/1e6, r.MeanPerFlow()/1e6)
}
