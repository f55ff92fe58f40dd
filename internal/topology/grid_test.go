package topology

import (
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
)

func TestNewGridRejectsBadInputs(t *testing.T) {
	cases := []struct {
		name   string
		origin geom.Point
		size   float64
		order  int
		want   string
	}{
		{"zero size", geom.Pt(0, 0), 0, 2, "positive"},
		{"negative size", geom.Pt(0, 0), -10, 2, "positive"},
		{"nan size", geom.Pt(0, 0), math.NaN(), 2, "positive"},
		{"inf size", geom.Pt(0, 0), math.Inf(1), 2, "positive"},
		{"nan origin", geom.Pt(math.NaN(), 0), 100, 2, "origin"},
		{"inf origin", geom.Pt(0, math.Inf(-1)), 100, 2, "origin"},
		{"negative order", geom.Pt(0, 0), 100, -1, "order"},
		{"huge order", geom.Pt(0, 0), 100, MaxGridOrder + 1, "order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewGrid(tc.origin, tc.size, tc.order)
			if err == nil {
				t.Fatalf("NewGrid(%v, %g, %d) accepted bad input", tc.origin, tc.size, tc.order)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestGridGeometry(t *testing.T) {
	g, err := NewGrid(geom.Pt(10, 20), 400, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Cells(); got != 16 {
		t.Fatalf("Cells() = %d, want 16", got)
	}
	if got := g.side; got != 4 {
		t.Fatalf("Side() = %d, want 4", got)
	}
	if got := g.CellSizeMeters(); got != 100 {
		t.Fatalf("CellSizeMeters() = %g, want 100", got)
	}
	// Morton round trip for every cell.
	for c := 0; c < g.Cells(); c++ {
		row, col := g.CellRowCol(c)
		if row < 0 || row >= 4 || col < 0 || col >= 4 {
			t.Fatalf("cell %d decodes to out-of-range (%d, %d)", c, row, col)
		}
		center := g.CellCenter(c)
		back, err := g.CellOf(center)
		if err != nil {
			t.Fatalf("CellOf(center of %d): %v", c, err)
		}
		if back != c {
			t.Fatalf("CellOf(CellCenter(%d)) = %d", c, back)
		}
	}
	// z-order: cell 0 is the origin quadrant corner; cell 3 is its diagonal.
	if r, c := g.CellRowCol(0); r != 0 || c != 0 {
		t.Fatalf("cell 0 at (%d, %d), want (0, 0)", r, c)
	}
	if r, c := g.CellRowCol(3); r != 1 || c != 1 {
		t.Fatalf("cell 3 at (%d, %d), want (1, 1) under z-order", r, c)
	}
}

func TestCellOfErrorsOutsideWorld(t *testing.T) {
	g, err := NewGrid(geom.Pt(0, 0), 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Contains(geom.Pt(100, 100)) {
		t.Fatal("far corner should be inside (inclusive bounds)")
	}
	for _, p := range []geom.Point{geom.Pt(-1, 50), geom.Pt(50, -0.5), geom.Pt(101, 50), geom.Pt(50, 100.1)} {
		if _, err := g.CellOf(p); err == nil {
			t.Fatalf("CellOf(%v) accepted an outside point", p)
		} else if !strings.Contains(err.Error(), "outside grid") {
			t.Fatalf("CellOf(%v) error %q does not describe the bounds", p, err)
		}
		// The clamped variant maps it to a valid edge cell instead.
		c := g.ClampedCellOf(p)
		if c < 0 || c >= g.Cells() {
			t.Fatalf("ClampedCellOf(%v) = %d out of range", p, c)
		}
	}
}

func TestMinCellDistance(t *testing.T) {
	g, err := NewGrid(geom.Pt(0, 0), 400, 2) // 4×4 cells of 100 m
	if err != nil {
		t.Fatal(err)
	}
	cell := func(row, col int) int {
		return int(interleave(uint32(row))<<1 | interleave(uint32(col)))
	}
	if d := g.MinCellDistance(cell(0, 0), cell(0, 0)); d != 0 {
		t.Fatalf("same cell distance %g", d)
	}
	if d := g.MinCellDistance(cell(0, 0), cell(1, 1)); d != 0 {
		t.Fatalf("diagonal-adjacent distance %g, want 0", d)
	}
	if d := g.MinCellDistance(cell(0, 0), cell(0, 2)); d != 100 {
		t.Fatalf("one-gap distance %g, want 100", d)
	}
	if d := g.MinCellDistance(cell(0, 0), cell(3, 3)); math.Abs(d-200*math.Sqrt2) > 1e-9 {
		t.Fatalf("far diagonal distance %g, want %g", d, 200*math.Sqrt2)
	}
}

func TestCellsWithin(t *testing.T) {
	g, err := NewGrid(geom.Pt(0, 0), 400, 2)
	if err != nil {
		t.Fatal(err)
	}
	center := g.ClampedCellOf(geom.Pt(150, 150)) // cell (1,1)

	// Radius 0 still reaches every adjacent cell (min distance 0).
	got := g.CellsWithin(center, 0)
	if len(got) != 9 {
		t.Fatalf("CellsWithin(r=0) returned %d cells, want the 3×3 block", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("result not strictly ascending: %v", got)
		}
	}
	// Radius past one full cell reaches the 4×4 world minus nothing.
	if got := g.CellsWithin(center, 150); len(got) != 16 {
		t.Fatalf("CellsWithin(r=150) returned %d cells, want all 16", len(got))
	}
	// +Inf means everything, from any cell.
	if got := g.CellsWithin(0, math.Inf(1)); len(got) != g.Cells() {
		t.Fatalf("CellsWithin(+Inf) returned %d cells", len(got))
	}
	// Every returned cell really is within the radius; every omitted one is not.
	const r = 120.0
	within := make(map[int32]bool)
	for _, c := range g.CellsWithin(center, r) {
		within[c] = true
	}
	for c := 0; c < g.Cells(); c++ {
		d := g.MinCellDistance(center, c)
		if (d <= r) != within[int32(c)] {
			t.Fatalf("cell %d at min distance %g: within=%v", c, d, within[int32(c)])
		}
	}
}
