package geom

import "math"

// Grid is a uniform-cell spatial index over points in an AABB. It supports
// the two queries the simulator needs on its hot path:
//
//   - Any: whether some point within d of a query point satisfies a
//     predicate (the HELLO broadcast of Algorithm 2 reaches every node
//     within the cluster coverage radius d_c, and Algorithm 3 asks
//     whether a richer head is among them), and
//   - Nearest: the closest indexed point to a query (nearest-cluster-head
//     assignment used by the DEEC and k-means baselines).
//
// Cells are cubic with edge ~ the expected query radius; queries visit
// only the O(1) neighbouring cells rather than all N points, keeping the
// per-round cost of Algorithm 2 at the O(N) the paper claims (Lemma 2)
// instead of O(N²) for naive broadcasts.
type Grid struct {
	bounds   AABB
	cell     float64
	nx, ny   int
	nz       int
	points   []Vec3
	ids      []int   // ids[i] is the caller's identifier for points[i]
	cells    [][]int // cells[c] lists indices into points
	cellOfPt []int
}

// NewGrid builds an index over the given points. ids[i] is returned from
// queries to identify points[i]; if ids is nil the point's slice index is
// used. cellSize <= 0 picks a heuristic cell edge targeting ~2 points per
// cell.
func NewGrid(bounds AABB, points []Vec3, ids []int, cellSize float64) *Grid {
	if err := bounds.Validate(); err != nil {
		panic(err)
	}
	if ids != nil && len(ids) != len(points) {
		panic("geom: NewGrid ids length mismatch")
	}
	if ids == nil {
		ids = make([]int, len(points))
		for i := range ids {
			ids[i] = i
		}
	}
	size := bounds.Size()
	if cellSize <= 0 {
		n := len(points)
		if n < 1 {
			n = 1
		}
		// Edge so that each cell holds ~2 points on average.
		cellSize = math.Cbrt(2 * bounds.Volume() / float64(n))
	}
	g := &Grid{bounds: bounds, cell: cellSize}
	g.nx = maxInt(1, int(math.Ceil(size.X/cellSize)))
	g.ny = maxInt(1, int(math.Ceil(size.Y/cellSize)))
	g.nz = maxInt(1, int(math.Ceil(size.Z/cellSize)))
	g.points = append([]Vec3(nil), points...)
	g.ids = append([]int(nil), ids...)
	g.cells = make([][]int, g.nx*g.ny*g.nz)
	g.cellOfPt = make([]int, len(points))
	for i, p := range points {
		c := g.cellIndex(p)
		g.cells[c] = append(g.cells[c], i)
		g.cellOfPt[i] = c
	}
	return g
}

// Reindex rebuilds the index in place over a new point set, reusing the
// existing cell structure and buffers — for callers that re-query a
// fresh set of points every round over the same bounds (the per-round
// head set of Algorithm 3). The grid keeps its bounds and cell size, so
// build it with an explicit cellSize (e.g. the query radius) rather
// than the point-count heuristic.
func (g *Grid) Reindex(points []Vec3, ids []int) {
	if ids != nil && len(ids) != len(points) {
		panic("geom: Reindex ids length mismatch")
	}
	for _, c := range g.cellOfPt {
		g.cells[c] = g.cells[c][:0]
	}
	g.points = append(g.points[:0], points...)
	if ids == nil {
		g.ids = g.ids[:0]
		for i := range points {
			g.ids = append(g.ids, i)
		}
	} else {
		g.ids = append(g.ids[:0], ids...)
	}
	if cap(g.cellOfPt) < len(points) {
		g.cellOfPt = make([]int, len(points))
	}
	g.cellOfPt = g.cellOfPt[:len(points)]
	for i, p := range points {
		c := g.cellIndex(p)
		g.cells[c] = append(g.cells[c], i)
		g.cellOfPt[i] = c
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (g *Grid) cellCoords(p Vec3) (cx, cy, cz int) {
	rel := p.Sub(g.bounds.Min)
	cx = clampInt(int(rel.X/g.cell), 0, g.nx-1)
	cy = clampInt(int(rel.Y/g.cell), 0, g.ny-1)
	cz = clampInt(int(rel.Z/g.cell), 0, g.nz-1)
	return
}

func (g *Grid) cellIndex(p Vec3) int {
	cx, cy, cz := g.cellCoords(p)
	return (cz*g.ny+cy)*g.nx + cx
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Any reports whether some indexed point p with dist(p, q) <= d has an
// id for which pred holds. It visits the points within range in no
// particular order and returns at the first such id, so pred must not
// depend on the order; a query point that is indexed is visited too.
func (g *Grid) Any(q Vec3, d float64, pred func(id int) bool) bool {
	if d < 0 {
		return false
	}
	d2 := d * d
	cx, cy, cz := g.cellCoords(q)
	span := int(math.Ceil(d/g.cell)) + 1
	for dz := -span; dz <= span; dz++ {
		z := cz + dz
		if z < 0 || z >= g.nz {
			continue
		}
		for dy := -span; dy <= span; dy++ {
			y := cy + dy
			if y < 0 || y >= g.ny {
				continue
			}
			for dx := -span; dx <= span; dx++ {
				x := cx + dx
				if x < 0 || x >= g.nx {
					continue
				}
				for _, i := range g.cells[(z*g.ny+y)*g.nx+x] {
					if g.points[i].DistSq(q) <= d2 && pred(g.ids[i]) {
						return true
					}
				}
			}
		}
	}
	return false
}

// Nearest returns the id of the indexed point closest to q and the
// distance to it. ok is false when the grid is empty. Ties break toward
// the smaller id so results are deterministic.
func (g *Grid) Nearest(q Vec3) (id int, dist float64, ok bool) {
	if len(g.points) == 0 {
		return 0, 0, false
	}
	bestID := -1
	best := math.Inf(1)
	cx, cy, cz := g.cellCoords(q)
	maxSpan := maxInt(g.nx, maxInt(g.ny, g.nz))
	for span := 0; span <= maxSpan; span++ {
		found := false
		for dz := -span; dz <= span; dz++ {
			z := cz + dz
			if z < 0 || z >= g.nz {
				continue
			}
			for dy := -span; dy <= span; dy++ {
				y := cy + dy
				if y < 0 || y >= g.ny {
					continue
				}
				for dx := -span; dx <= span; dx++ {
					// Only the shell of the current span; inner cells
					// were visited at smaller spans.
					if absInt(dx) != span && absInt(dy) != span && absInt(dz) != span {
						continue
					}
					x := cx + dx
					if x < 0 || x >= g.nx {
						continue
					}
					for _, i := range g.cells[(z*g.ny+y)*g.nx+x] {
						found = true
						d := g.points[i].Dist(q)
						if d < best || (d == best && g.ids[i] < bestID) {
							best = d
							bestID = g.ids[i]
						}
					}
				}
			}
		}
		// Once a candidate exists, one extra shell guarantees correctness:
		// any closer point must lie within best distance, which spans at
		// most ceil(best/cell) cells.
		if found && float64(span)*g.cell > best {
			break
		}
	}
	if bestID < 0 {
		return 0, 0, false
	}
	return bestID, best, true
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
