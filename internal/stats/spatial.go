package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"qlec/internal/geom"
)

// SpatialField pairs sample locations with scalar values — e.g. node
// positions with per-node energy-consumption rates (Figure 4).
type SpatialField struct {
	Points []geom.Vec3
	Values []float64
}

// Validate checks structural consistency.
func (f SpatialField) Validate() error {
	if len(f.Points) != len(f.Values) {
		return fmt.Errorf("stats: %d points but %d values", len(f.Points), len(f.Values))
	}
	if len(f.Points) == 0 {
		return fmt.Errorf("stats: empty spatial field")
	}
	return nil
}

// BinnedCV partitions the bounding box into side³ cubic bins, averages
// the field inside each non-empty bin, and returns the coefficient of
// variation of those bin means. A spatially even field (Figure 4's claim
// for QLEC: "nodes with high energy consumption rate are evenly
// distributed") has a low BinnedCV; hot spots inflate it.
func (f SpatialField) BinnedCV(box geom.AABB, side int) (float64, error) {
	if err := f.Validate(); err != nil {
		return 0, err
	}
	if side <= 0 {
		return 0, fmt.Errorf("stats: BinnedCV side must be positive, got %d", side)
	}
	if err := box.Validate(); err != nil {
		return 0, err
	}
	sums := make([]float64, side*side*side)
	counts := make([]int, side*side*side)
	size := box.Size()
	for i, p := range f.Points {
		cx := clampIdx(int(float64(side)*(p.X-box.Min.X)/size.X), side)
		cy := clampIdx(int(float64(side)*(p.Y-box.Min.Y)/size.Y), side)
		cz := clampIdx(int(float64(side)*(p.Z-box.Min.Z)/size.Z), side)
		c := (cz*side+cy)*side + cx
		sums[c] += f.Values[i]
		counts[c]++
	}
	var means []float64
	for c, n := range counts {
		if n > 0 {
			means = append(means, sums[c]/float64(n))
		}
	}
	if len(means) < 2 {
		return 0, nil
	}
	return CoefficientOfVariation(means), nil
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// MoranI computes Moran's I spatial autocorrelation statistic with
// inverse-distance weights truncated at the given neighbourhood radius.
// Values near 0 indicate no spatial autocorrelation (consumption evenly
// scattered); values near +1 indicate clustering of similar values (hot
// spots); negative values indicate dispersion (checkerboarding).
//
//	I = (n / W) · Σᵢⱼ wᵢⱼ (xᵢ−x̄)(xⱼ−x̄) / Σᵢ (xᵢ−x̄)²
//
// Points are bucketed in a grid of cells at least radius wide, so only
// the 3×3×3 cells around each point are searched. For each i the pairs
// inside the radius are summed in ascending j, the order of the plain
// all-pairs loop, so the result is bit-identical to it.
//
// It returns an error when the field is degenerate (no variance, no
// neighbour pairs inside the radius) or a point is not finite.
func (f SpatialField) MoranI(radius float64) (float64, error) {
	if err := f.Validate(); err != nil {
		return 0, err
	}
	if !(radius > 0) {
		return 0, fmt.Errorf("stats: MoranI radius must be positive, got %v", radius)
	}
	n := len(f.Points)
	mean := Mean(f.Values)
	var denom float64
	for _, v := range f.Values {
		d := v - mean
		denom += d * d
	}
	if denom == 0 {
		return 0, fmt.Errorf("stats: MoranI undefined for constant field")
	}
	g, err := newPointGrid(f.Points, radius)
	if err != nil {
		return 0, err
	}
	mark := make([]uint64, (n+63)/64) // neighbours of i, cleared as summed
	dist := make([]float64, n)        // dist[j] for each marked j
	var num, wSum float64
	for i := 0; i < n; i++ {
		pi := f.Points[i]
		lo, hi := len(mark), -1
		c := g.at[i]
		for z := max(c[2]-1, 0); z <= min(c[2]+1, g.dims[2]-1); z++ {
			for y := max(c[1]-1, 0); y <= min(c[1]+1, g.dims[1]-1); y++ {
				// Cells x−1…x+1 of one row are adjacent in start.
				row := (z*g.dims[1] + y) * g.dims[0]
				x0, x1 := max(c[0]-1, 0), min(c[0]+1, g.dims[0]-1)
				for _, j := range g.order[g.start[row+x0]:g.start[row+x1+1]] {
					d := pi.Dist(f.Points[j])
					if int(j) == i || d > radius || d == 0 {
						continue
					}
					dist[j] = d
					w := int(j >> 6)
					mark[w] |= 1 << (j & 63)
					lo, hi = min(lo, w), max(hi, w)
				}
			}
		}
		for w := lo; w <= hi; w++ {
			for set := mark[w]; set != 0; set &= set - 1 {
				j := w<<6 | bits.TrailingZeros64(set)
				wt := 1 / dist[j]
				wSum += wt
				num += wt * (f.Values[i] - mean) * (f.Values[j] - mean)
			}
			mark[w] = 0
		}
	}
	if wSum == 0 {
		return 0, fmt.Errorf("stats: MoranI has no neighbour pairs within radius %v", radius)
	}
	return float64(n) / wSum * num / denom, nil
}

// pointGrid buckets points into cubic cells at least radius wide, so
// any two points within radius of each other lie in the same or
// adjacent cells.
type pointGrid struct {
	dims  [3]int
	at    [][3]int // cell coordinates of each point
	start []int32  // cell c holds order[start[c]:start[c+1]]
	order []int32  // point indices by cell, ascending within a cell
}

// maxGridCells bounds the cell count per point, so a radius far below
// the point spacing cannot blow the grid up; coarser cells stay
// correct, they only hold more candidates.
const maxGridCells = 4

func newPointGrid(pts []geom.Vec3, radius float64) (*pointGrid, error) {
	lo, hi := pts[0], pts[0]
	var mag float64
	for i, p := range pts {
		for _, v := range [3]float64{p.X, p.Y, p.Z} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("stats: MoranI point %d is not finite: %v", i, p)
			}
			mag = math.Max(mag, math.Abs(v))
		}
		lo = geom.Vec3{X: math.Min(lo.X, p.X), Y: math.Min(lo.Y, p.Y), Z: math.Min(lo.Z, p.Z)}
		hi = geom.Vec3{X: math.Max(hi.X, p.X), Y: math.Max(hi.Y, p.Y), Z: math.Max(hi.Z, p.Z)}
	}
	// The edge sits slightly above radius: the relative term covers a
	// distance that rounds down onto the radius, the absolute one the
	// rounding of p−lo, so an index rounding cannot push a neighbour
	// two cells away.
	cell := radius*(1+1e-6) + 1e-12*mag
	ext := [3]float64{hi.X - lo.X, hi.Y - lo.Y, hi.Z - lo.Z}
	limit := float64(maxGridCells * len(pts))
	for {
		cells := 1.0
		for _, e := range ext {
			cells *= math.Floor(e/cell) + 1
		}
		if cells <= limit {
			break
		}
		cell *= 2
	}
	g := &pointGrid{at: make([][3]int, len(pts))}
	for a, e := range ext {
		g.dims[a] = int(e/cell) + 1
	}
	ncell := g.dims[0] * g.dims[1] * g.dims[2]
	g.start = make([]int32, ncell+1)
	cellOf := make([]int32, len(pts))
	for i, p := range pts {
		off := [3]float64{p.X - lo.X, p.Y - lo.Y, p.Z - lo.Z}
		for a := range off {
			g.at[i][a] = min(int(off[a]/cell), g.dims[a]-1)
		}
		c := (g.at[i][2]*g.dims[1]+g.at[i][1])*g.dims[0] + g.at[i][0]
		cellOf[i] = int32(c)
		g.start[c+1]++
	}
	for c := 0; c < ncell; c++ {
		g.start[c+1] += g.start[c]
	}
	g.order = make([]int32, len(pts))
	fill := append([]int32(nil), g.start[:ncell]...)
	for i, c := range cellOf {
		g.order[fill[c]] = int32(i)
		fill[c]++
	}
	return g, nil
}

// GiniCoefficient returns the Gini inequality index of the (non-negative)
// values: 0 means perfectly even consumption across nodes, 1 maximal
// concentration. Used as a scalar companion to Figure 4.
func GiniCoefficient(values []float64) (float64, error) {
	if len(values) == 0 {
		return 0, fmt.Errorf("stats: Gini of empty sample")
	}
	sorted := append([]float64(nil), values...)
	for _, v := range sorted {
		if v < 0 || math.IsNaN(v) {
			return 0, fmt.Errorf("stats: Gini requires non-negative values, got %v", v)
		}
	}
	sort.Float64s(sorted)
	var cum, total float64
	n := float64(len(sorted))
	for i, v := range sorted {
		cum += float64(i+1) * v
		total += v
	}
	if total == 0 {
		return 0, nil
	}
	return (2*cum/(n*total) - (n+1)/n), nil
}
