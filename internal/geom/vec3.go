// Package geom provides the 3-dimensional geometry substrate for the QLEC
// simulator: vectors, axis-aligned boxes, uniform spatial sampling, and a
// uniform-grid spatial index used for cluster-coverage-radius broadcasts
// and nearest-cluster-head queries.
//
// The paper (§3.1) places N sensor nodes uniformly in an M×M×M cube with
// the base station at the cube center; Lemma 1 reasons about uniform balls
// around cluster heads. Both samplers live here so their statistical
// properties can be property-tested directly against the paper's
// closed-form moments.
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a point or displacement in 3-D space. Coordinates use the
// paper's abstract distance units (the radio model constants are expressed
// per meter, so units are meters throughout this codebase).
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// NormSq returns the squared Euclidean length of v.
func (v Vec3) NormSq() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// DistSq returns the squared Euclidean distance between v and w.
func (v Vec3) DistSq(w Vec3) float64 { return v.Sub(w).NormSq() }

// String implements fmt.Stringer.
func (v Vec3) String() string {
	return fmt.Sprintf("(%.3g, %.3g, %.3g)", v.X, v.Y, v.Z)
}

// IsFinite reports whether all coordinates are finite numbers.
func (v Vec3) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// Lerp returns the linear interpolation between v and w at parameter t.
func (v Vec3) Lerp(w Vec3, t float64) Vec3 {
	return Vec3{
		v.X + (w.X-v.X)*t,
		v.Y + (w.Y-v.Y)*t,
		v.Z + (w.Z-v.Z)*t,
	}
}
