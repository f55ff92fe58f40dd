package topology

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// MaxGridOrder bounds the grid resolution: 4^8 = 65,536 cells is already far
// finer than any audibility radius warrants, and per-cell bookkeeping beyond
// it costs more than it prunes.
const MaxGridOrder = 8

// Grid partitions a square world into 4^order equal square cells, indexed in
// quadtree (Morton / z-order) fashion: at every level the world quadrant
// contributes two bits, the y half the higher one — the loc→cell scheme of
// the SFC_migration loc2ap exemplar. The same grid doubles as the loc→AP
// mapping: an AP layer is just a coarser Grid whose cell index names the AP
// covering a location.
//
// A Grid is immutable after construction and safe for concurrent readers.
type Grid struct {
	origin geom.Point
	size   float64 // world edge length, meters
	order  int     // cells = 4^order, side = 2^order
	side   int
	cell   float64 // cell edge length, meters
}

// NewGrid builds a grid over the square [origin, origin+size)² split into
// 4^order cells. It rejects non-positive or non-finite world sizes and
// out-of-range orders with a descriptive error instead of clamping.
func NewGrid(origin geom.Point, sizeMeters float64, order int) (*Grid, error) {
	if math.IsNaN(sizeMeters) || math.IsInf(sizeMeters, 0) || sizeMeters <= 0 {
		return nil, fmt.Errorf("topology: grid world size must be positive and finite, got %g m", sizeMeters)
	}
	if math.IsNaN(origin.X) || math.IsNaN(origin.Y) || math.IsInf(origin.X, 0) || math.IsInf(origin.Y, 0) {
		return nil, fmt.Errorf("topology: grid origin must be finite, got %v", origin)
	}
	if order < 0 || order > MaxGridOrder {
		return nil, fmt.Errorf("topology: grid order must be in [0, %d], got %d", MaxGridOrder, order)
	}
	side := 1 << order
	return &Grid{
		origin: origin,
		size:   sizeMeters,
		order:  order,
		side:   side,
		cell:   sizeMeters / float64(side),
	}, nil
}

// Origin returns the world's minimum corner.
func (g *Grid) Origin() geom.Point { return g.origin }

// SizeMeters returns the world edge length.
func (g *Grid) SizeMeters() float64 { return g.size }

// Order returns the power-of-4 exponent (Cells() == 4^Order()).
func (g *Grid) Order() int { return g.order }

// Cells returns the number of cells, always a power of 4.
func (g *Grid) Cells() int { return g.side * g.side }

// CellSizeMeters returns one cell's edge length.
func (g *Grid) CellSizeMeters() float64 { return g.cell }

// Contains reports whether p lies inside the world (both bounds inclusive,
// so stations placed exactly on the far edge are valid).
func (g *Grid) Contains(p geom.Point) bool {
	return p.X >= g.origin.X && p.X <= g.origin.X+g.size &&
		p.Y >= g.origin.Y && p.Y <= g.origin.Y+g.size
}

// CellOf maps a location to its Morton cell index. Locations outside the
// world are an error naming the offending coordinate and the bounds — the
// caller decides whether clamping is acceptable (see ClampedCellOf).
func (g *Grid) CellOf(p geom.Point) (int, error) {
	if !g.Contains(p) {
		return 0, fmt.Errorf("topology: point %v outside grid [%g, %g]×[%g, %g]",
			p, g.origin.X, g.origin.X+g.size, g.origin.Y, g.origin.Y+g.size)
	}
	return g.ClampedCellOf(p), nil
}

// ClampedCellOf maps a location to its Morton cell index, clamping
// out-of-world coordinates to the nearest edge cell. Use only for
// mid-run drift (mobility integrating slightly past the boundary); initial
// placements go through CellOf / Topology.Validate.
func (g *Grid) ClampedCellOf(p geom.Point) int {
	col := g.axisCell(p.X - g.origin.X)
	row := g.axisCell(p.Y - g.origin.Y)
	return int(interleave(uint32(row))<<1 | interleave(uint32(col)))
}

// axisCell maps a world-relative coordinate to a clamped cell ordinate.
func (g *Grid) axisCell(v float64) int {
	i := int(math.Floor(v / g.cell))
	if i < 0 {
		return 0
	}
	if i >= g.side {
		return g.side - 1
	}
	return i
}

// CellRowCol decodes a Morton cell index into (row, col).
func (g *Grid) CellRowCol(c int) (row, col int) {
	return int(compact(uint32(c) >> 1)), int(compact(uint32(c)))
}

// CellRect returns a cell's axis-aligned bounds.
func (g *Grid) CellRect(c int) (min, max geom.Point) {
	row, col := g.CellRowCol(c)
	min = geom.Pt(g.origin.X+float64(col)*g.cell, g.origin.Y+float64(row)*g.cell)
	max = geom.Pt(min.X+g.cell, min.Y+g.cell)
	return min, max
}

// CellCenter returns a cell's center point — where the AP layer places its
// access points.
func (g *Grid) CellCenter(c int) geom.Point {
	min, _ := g.CellRect(c)
	return geom.Pt(min.X+g.cell/2, min.Y+g.cell/2)
}

// MinCellDistance returns the minimum distance between any point of cell a
// and any point of cell b (0 for the same or adjacent cells). It is the
// lower bound the sharded channel tests against the audibility radius: if
// even this distance attenuates every signal below the floor, no station
// pair across the two cells can ever be audible.
func (g *Grid) MinCellDistance(a, b int) float64 {
	ra, ca := g.CellRowCol(a)
	rb, cb := g.CellRowCol(b)
	dx := axisGap(ca, cb) * g.cell
	dy := axisGap(ra, rb) * g.cell
	return math.Hypot(dx, dy)
}

// axisGap returns the number of whole cells strictly between ordinates a and
// b (0 when equal or adjacent).
func axisGap(a, b int) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if d <= 1 {
		return 0
	}
	return float64(d - 1)
}

// CellsWithin returns, in ascending Morton order, every cell whose minimum
// distance to cell c is at most radius (always including c itself). A
// non-finite radius returns all cells. The scan is bounded to the rows and
// columns the radius can reach, so cost is O(k) in the result size, not
// O(Cells).
func (g *Grid) CellsWithin(c int, radius float64) []int32 {
	if math.IsNaN(radius) || radius < 0 {
		radius = 0
	}
	out := make([]int32, 0, 16)
	if math.IsInf(radius, 1) {
		for i := 0; i < g.Cells(); i++ {
			out = append(out, int32(i))
		}
		return out
	}
	row, col := g.CellRowCol(c)
	// A cell at axis gap k has min axis distance (k-1)·cell, so the radius
	// reaches gaps up to floor(radius/cell)+1.
	reach := int(radius/g.cell) + 1
	lo := func(v int) int {
		if v -= reach; v < 0 {
			v = 0
		}
		return v
	}
	hi := func(v int) int {
		if v += reach; v >= g.side {
			v = g.side - 1
		}
		return v
	}
	for r := lo(row); r <= hi(row); r++ {
		for cc := lo(col); cc <= hi(col); cc++ {
			cand := int(interleave(uint32(r))<<1 | interleave(uint32(cc)))
			if g.MinCellDistance(c, cand) <= radius {
				out = append(out, int32(cand))
			}
		}
	}
	sortInt32s(out)
	return out
}

// interleave spreads the low 16 bits of v so bit i lands at position 2i
// (Morton part1by1).
func interleave(v uint32) uint32 {
	v &= 0x0000ffff
	v = (v | v<<8) & 0x00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f
	v = (v | v<<2) & 0x33333333
	v = (v | v<<1) & 0x55555555
	return v
}

// compact is the inverse of interleave: it gathers every even bit of v.
func compact(v uint32) uint32 {
	v &= 0x55555555
	v = (v | v>>1) & 0x33333333
	v = (v | v>>2) & 0x0f0f0f0f
	v = (v | v>>4) & 0x00ff00ff
	v = (v | v>>8) & 0x0000ffff
	return v
}

// sortInt32s sorts ascending (insertion sort: CellsWithin emits
// near-sorted row-major runs and result sizes are small).
func sortInt32s(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
