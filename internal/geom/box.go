package geom

import (
	"fmt"
	"math"

	"qlec/internal/rng"
)

// AABB is an axis-aligned bounding box with inclusive Min and exclusive
// Max corner semantics for sampling (a sampled point p satisfies
// Min.X <= p.X < Max.X on each axis).
type AABB struct {
	Min, Max Vec3
}

// Cube returns the M×M×M deployment cube used throughout the paper, with
// its minimum corner at the origin.
func Cube(side float64) AABB {
	return AABB{Min: Vec3{}, Max: Vec3{side, side, side}}
}

// Center returns the geometric center of the box. The paper places the
// base station ("the green node in the center", Fig. 1) here.
func (b AABB) Center() Vec3 {
	return b.Min.Lerp(b.Max, 0.5)
}

// Size returns the per-axis extents of the box.
func (b AABB) Size() Vec3 { return b.Max.Sub(b.Min) }

// Volume returns the volume of the box.
func (b AABB) Volume() float64 {
	s := b.Size()
	return s.X * s.Y * s.Z
}

// Validate returns an error if the box is degenerate or inverted.
func (b AABB) Validate() error {
	if !(b.Min.IsFinite() && b.Max.IsFinite()) {
		return fmt.Errorf("geom: box corners not finite: %v %v", b.Min, b.Max)
	}
	if b.Max.X <= b.Min.X || b.Max.Y <= b.Min.Y || b.Max.Z <= b.Min.Z {
		return fmt.Errorf("geom: box has non-positive extent: %v %v", b.Min, b.Max)
	}
	return nil
}

// SampleUniform draws a point uniformly inside the box.
func (b AABB) SampleUniform(r *rng.Stream) Vec3 {
	return Vec3{
		X: r.Range(b.Min.X, b.Max.X),
		Y: r.Range(b.Min.Y, b.Max.Y),
		Z: r.Range(b.Min.Z, b.Max.Z),
	}
}

// SampleUniformN draws n points uniformly inside the box.
func (b AABB) SampleUniformN(r *rng.Stream, n int) []Vec3 {
	pts := make([]Vec3, n)
	for i := range pts {
		pts[i] = b.SampleUniform(r)
	}
	return pts
}

// CoverageRadius returns the paper's Eq. (5) cluster coverage radius
//
//	d_c = (3 / (4πk))^(1/3) · M,
//
// i.e. the radius at which k balls jointly match the cube's volume. It
// panics if k <= 0 because a cluster count is structurally positive.
func CoverageRadius(side float64, k int) float64 {
	if k <= 0 {
		panic("geom: CoverageRadius requires k > 0")
	}
	return math.Cbrt(3.0/(4.0*math.Pi*float64(k))) * side
}

// MeanDistToPoint estimates, by direct summation, the mean distance from
// the given points to a fixed point. Used to compute the paper's d_toBS
// ("approximated by the average distance between the nodes and BS", §3.2).
func MeanDistToPoint(pts []Vec3, q Vec3) float64 {
	if len(pts) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range pts {
		sum += p.Dist(q)
	}
	return sum / float64(len(pts))
}

// ExpectedMeanDistCubeToCenter returns the closed-form constant for the
// expected distance from a uniform point in an M-cube to the cube center:
// E[d] = M * c where c ≈ 0.480296 (the Robbins constant scaled to the
// half-cube). It is evaluated by deterministic Gauss–Legendre quadrature
// once at startup cost rather than hard-coding an opaque literal.
func ExpectedMeanDistCubeToCenter(side float64) float64 {
	// Integrate sqrt(x²+y²+z²) over [-1/2,1/2]³ with fixed quadrature.
	nodes, weights := gaussLegendre32()
	sum := 0.0
	for i, xi := range nodes {
		x := xi / 2
		wx := weights[i]
		for j, yj := range nodes {
			y := yj / 2
			wy := weights[j]
			for k, zk := range nodes {
				z := zk / 2
				sum += wx * wy * weights[k] * math.Sqrt(x*x+y*y+z*z)
			}
		}
	}
	// The affine map [-1,1]→[-1/2,1/2] contributes (1/2)³ Jacobian.
	return side * sum / 8
}

// gaussLegendre32 returns 32-point Gauss–Legendre nodes and weights on
// [-1, 1], computed by Newton iteration on Legendre polynomials.
func gaussLegendre32() (nodes, weights []float64) {
	const n = 32
	nodes = make([]float64, n)
	weights = make([]float64, n)
	for i := 0; i < (n+1)/2; i++ {
		// Initial guess (Abramowitz & Stegun 25.4.30).
		x := math.Cos(math.Pi * (float64(i) + 0.75) / (float64(n) + 0.5))
		var pp float64
		for iter := 0; iter < 100; iter++ {
			p0, p1 := 1.0, 0.0
			for j := 0; j < n; j++ {
				p2 := p1
				p1 = p0
				p0 = ((2*float64(j)+1)*x*p1 - float64(j)*p2) / float64(j+1)
			}
			pp = float64(n) * (x*p0 - p1) / (x*x - 1)
			dx := p0 / pp
			x -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		nodes[i] = -x
		nodes[n-1-i] = x
		w := 2 / ((1 - x*x) * pp * pp)
		weights[i] = w
		weights[n-1-i] = w
	}
	return nodes, weights
}
