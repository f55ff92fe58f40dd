package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestDistanceTo(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Pt(1, 2), Pt(1, 2), 0},
		{"horizontal", Pt(0, 0), Pt(3, 0), 3},
		{"vertical", Pt(0, 0), Pt(0, 4), 4},
		{"3-4-5", Pt(0, 0), Pt(3, 4), 5},
		{"negative coords", Pt(-1, -1), Pt(2, 3), 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.DistanceTo(tt.q); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("DistanceTo = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(ax, ay), Pt(bx, by)
		return a.DistanceTo(b) == b.DistanceTo(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Pt(float64(ax), float64(ay))
		b := Pt(float64(bx), float64(by))
		c := Pt(float64(cx), float64(cy))
		return a.DistanceTo(c) <= a.DistanceTo(b)+b.DistanceTo(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	f := func(px, py, qx, qy int32) bool {
		p := Pt(float64(px), float64(py))
		q := Pt(float64(qx), float64(qy))
		return q.Add(p.Sub(q)) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorLength(t *testing.T) {
	if got := Vec(3, 4).Length(); got != 5 {
		t.Errorf("Length = %v, want 5", got)
	}
	if got := Vec(0, 0).Length(); got != 0 {
		t.Errorf("zero vector Length = %v, want 0", got)
	}
}

func TestVectorScaleAdd(t *testing.T) {
	p := Pt(-1, 1).Add(Vec(1, -2).Scale(3))
	if p != Pt(2, -5) {
		t.Errorf("got %v, want (2,-5)", p)
	}
}

func TestUnit(t *testing.T) {
	u := Vec(10, 0).Unit()
	if !almostEqual(u.DX, 1, 1e-12) || u.DY != 0 {
		t.Errorf("Unit = %+v, want {1 0}", u)
	}
	if z := Vec(0, 0).Unit(); z != Vec(0, 0) {
		t.Errorf("Unit of zero = %+v, want zero", z)
	}
}

func TestUnitHasLengthOne(t *testing.T) {
	f := func(dx, dy int16) bool {
		v := Vec(float64(dx), float64(dy))
		if v.Length() == 0 {
			return true
		}
		return almostEqual(v.Unit().Length(), 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerp(t *testing.T) {
	p, q := Pt(0, 0), Pt(10, 20)
	tests := []struct {
		t    float64
		want Point
	}{
		{0, p},
		{1, q},
		{0.5, Pt(5, 10)},
		{2, Pt(20, 40)}, // extrapolation
	}
	for _, tt := range tests {
		if got := Lerp(p, q, tt.t); got != tt.want {
			t.Errorf("Lerp(t=%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
}

func TestOnLine(t *testing.T) {
	got := OnLine(Pt(0, 0), Pt(100, 0), 36)
	if !almostEqual(got.X, 36, 1e-9) || got.Y != 0 {
		t.Errorf("OnLine = %v, want (36,0)", got)
	}
	// Degenerate: origin == target.
	if got := OnLine(Pt(1, 1), Pt(1, 1), 10); got != Pt(1, 1) {
		t.Errorf("degenerate OnLine = %v, want (1,1)", got)
	}
}

func TestOnLineDistanceProperty(t *testing.T) {
	f := func(ox, oy, tx, ty int16, dRaw uint8) bool {
		o := Pt(float64(ox), float64(oy))
		tg := Pt(float64(tx), float64(ty))
		if o.DistanceTo(tg) == 0 {
			return true
		}
		d := float64(dRaw)
		got := OnLine(o, tg, d)
		return almostEqual(o.DistanceTo(got), d, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointString(t *testing.T) {
	if got := Pt(1.234, -5).String(); got != "(1.23, -5.00)" {
		t.Errorf("String = %q", got)
	}
}
