package comap

import (
	"slices"
	"sort"

	"repro/internal/audit"
	"repro/internal/frame"
)

// DigestState folds the agent's learned state into an audit deep digest:
// the co-occurrence map (sorted by ongoing link, then receiver), its
// hit/miss counters and the seen-link table. These are exactly the maps
// whose iteration-order leaks caused PR 5's nondeterminism bugs, so a deep
// digest that still matches while the event chains split acquits them.
// Read-only; called at ledger deep-digest slices on the sim goroutine.
func (a *Agent) DigestState(h *audit.Hasher) {
	h.Int(int(a.id))
	a.cmap.digest(h)
	h.Int(len(a.seen))
	for _, e := range a.seen {
		h.Int(int(e.link.Src))
		h.Int(int(e.link.Dst))
		h.Int64(int64(e.at))
	}
}

func (c *CoOccurrenceMap) digest(h *audit.Hasher) {
	h.Int(c.hits)
	h.Int(c.misses)
	links := make([]Link, 0, len(c.entries))
	for l := range c.entries {
		links = append(links, l)
	}
	slices.SortFunc(links, compareLinks)
	h.Int(len(links))
	for _, l := range links {
		h.Int(int(l.Src))
		h.Int(int(l.Dst))
		row := c.entries[l]
		dsts := make([]frame.NodeID, 0, len(row))
		for d := range row {
			dsts = append(dsts, d)
		}
		sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
		h.Int(len(dsts))
		for _, d := range dsts {
			h.Int(int(d))
			h.Bool(row[d])
		}
	}
}
