package geom

import "sort"

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
