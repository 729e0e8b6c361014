package geom

import (
	"math"
	"sort"

	"qlec/internal/rng"
)

// WithinRadius returns the ids of all indexed points p with
// dist(p, q) <= d, in ascending order: Any visiting every point in
// range, sorted, for tests that compare the grid with brute force.
func (g *Grid) WithinRadius(q Vec3, d float64) []int {
	var out []int
	g.Any(q, d, func(id int) bool {
		out = append(out, id)
		return false
	})
	sort.Ints(out)
	return out
}

// Centroid returns the arithmetic mean of the given points. It returns the
// zero vector for an empty slice.
func Centroid(pts []Vec3) Vec3 {
	if len(pts) == 0 {
		return Vec3{}
	}
	var c Vec3
	for _, p := range pts {
		c = c.Add(p)
	}
	return c.Scale(1 / float64(len(pts)))
}

// SampleBall draws a point uniformly inside the ball of the given radius
// centered at c, by radial inversion: r = R * u^(1/3) with a uniform
// direction drawn by the Marsaglia (1972) rejection method. This is the
// distribution Lemma 1 assumes ("cluster nodes are uniformly distributed
// in the area of a ball centered on the cluster head").
func SampleBall(r *rng.Stream, c Vec3, radius float64) Vec3 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := 2 * math.Sqrt(1-s)
		dir := Vec3{X: u * f, Y: v * f, Z: 1 - 2*s}
		return c.Add(dir.Scale(radius * math.Cbrt(r.Float64())))
	}
}
