package stats

import (
	"sort"
	"time"
)

// GoodputMeter accumulates delivered payload bytes and converts them to a
// goodput in bits per second over a measurement window. Goodput counts only
// application payload delivered to the destination for the first time
// (retransmitted duplicates must not be added).
type GoodputMeter struct {
	payloadBytes int64
	frames       int64
}

// AddPayload records bytes of newly delivered application payload.
func (g *GoodputMeter) AddPayload(bytes int) {
	g.payloadBytes += int64(bytes)
	g.frames++
}

// Bytes returns the total delivered payload bytes.
func (g *GoodputMeter) Bytes() int64 { return g.payloadBytes }

// Frames returns the number of delivered frames.
func (g *GoodputMeter) Frames() int64 { return g.frames }

// BitsPerSecond returns the goodput over the given elapsed wall-clock
// (simulated) duration. It returns 0 for non-positive durations.
func (g *GoodputMeter) BitsPerSecond(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(g.payloadBytes) * 8 / elapsed.Seconds()
}

// Counter is a named monotonically increasing event counter set, used for
// protocol statistics (collisions, retries, deferrals, ...).
type Counter struct {
	counts map[string]int64
}

// NewCounter returns an empty counter set.
func NewCounter() *Counter { return &Counter{counts: make(map[string]int64)} }

// Inc increments the named counter by 1.
func (c *Counter) Inc(name string) { c.counts[name]++ }

// Get returns the value of the named counter (0 if never incremented).
func (c *Counter) Get(name string) int64 { return c.counts[name] }

// Names returns the counter names in sorted order.
func (c *Counter) Names() []string {
	names := make([]string, 0, len(c.counts))
	for n := range c.counts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns a copy of the underlying counts.
func (c *Counter) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}
