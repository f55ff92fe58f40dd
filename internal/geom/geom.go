// Package geom provides the 2-D geometry primitives used by the CO-MAP
// simulator: points, vectors, distances and placement helpers.
//
// All coordinates are in meters. The plane is flat (no elevation); the paper's
// testbed and NS-2 scenarios are all single-floor deployments.
package geom

import (
	"fmt"
	"math"
)

// Point is a position on the 2-D plane, in meters.
type Point struct {
	X float64
	Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// String renders the point as "(x, y)" with centimeter precision.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Add returns p translated by v.
func (p Point) Add(v Vector) Point { return Point{X: p.X + v.DX, Y: p.Y + v.DY} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vector { return Vector{DX: p.X - q.X, DY: p.Y - q.Y} }

// DistanceTo returns the Euclidean distance between p and q, in meters.
func (p Point) DistanceTo(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Vector is a displacement on the plane, in meters.
type Vector struct {
	DX float64
	DY float64
}

// Vec is shorthand for Vector{dx, dy}.
func Vec(dx, dy float64) Vector { return Vector{DX: dx, DY: dy} }

// Length returns the Euclidean norm of v.
func (v Vector) Length() float64 { return math.Hypot(v.DX, v.DY) }

// Scale returns v scaled by k.
func (v Vector) Scale(k float64) Vector { return Vector{DX: v.DX * k, DY: v.DY * k} }

// Unit returns the unit vector in the direction of v. The zero vector is
// returned unchanged.
func (v Vector) Unit() Vector {
	l := v.Length()
	if l == 0 {
		return v
	}
	return v.Scale(1 / l)
}

// Lerp linearly interpolates between p (t=0) and q (t=1). t outside [0,1]
// extrapolates along the same line.
func Lerp(p, q Point, t float64) Point {
	return Point{X: p.X + (q.X-p.X)*t, Y: p.Y + (q.Y-p.Y)*t}
}

// OnLine returns a point d meters from origin along the direction towards
// target. If origin == target the origin is returned.
func OnLine(origin, target Point, d float64) Point {
	u := target.Sub(origin).Unit()
	return origin.Add(u.Scale(d))
}
