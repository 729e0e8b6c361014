// Package kmeans implements the classic k-means clustering baseline of
// the paper's evaluation (§5: "classic k-means clustering"), using
// Lloyd's algorithm with k-means++ seeding in 3-D, plus a brute-force
// optimal solver for tiny instances used to measure clustering quality
// against the NP-Complete EECP optimum (Definition 2 / Theorem 2).
//
// As a routing protocol, k-means clusters node *positions* only — "k-means
// clusters nodes based on the distance between them" (§5.2) — so the head
// of each cluster is the node nearest the centroid and members always
// forward to their cluster's head, with no energy awareness and no
// rerouting on failure. Those two omissions are precisely what the
// paper's figures penalize.
package kmeans

import (
	"fmt"
	"math"

	"qlec/internal/geom"
	"qlec/internal/rng"
)

// Result holds a clustering of points.
type Result struct {
	// Centroids are the final cluster centers.
	Centroids []geom.Vec3
	// Assign maps each input point to its centroid index.
	Assign []int
	// Cost is the sum of squared point→centroid distances (the k-means
	// objective; Definition 2's "average distance to the nearest center"
	// scales it by 1/n).
	Cost float64
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
}

// Config parameterizes Cluster.
type Config struct {
	// K is the cluster count.
	K int
	// MaxIterations caps Lloyd's loop; convergence usually happens far
	// earlier. Zero means the default of 100.
	MaxIterations int
	// Tolerance stops iteration when no centroid moves more than this
	// distance. Zero means 1e-9.
	Tolerance float64
}

func (c Config) withDefaults() Config {
	if c.MaxIterations == 0 {
		c.MaxIterations = 100
	}
	if c.Tolerance == 0 {
		c.Tolerance = 1e-9
	}
	return c
}

// Validate checks the configuration against the point count.
func (c Config) Validate(n int) error {
	if c.K <= 0 {
		return fmt.Errorf("kmeans: K must be positive, got %d", c.K)
	}
	if c.K > n {
		return fmt.Errorf("kmeans: K=%d exceeds point count %d", c.K, n)
	}
	if c.MaxIterations < 0 || c.Tolerance < 0 {
		return fmt.Errorf("kmeans: negative iteration cap or tolerance")
	}
	return nil
}

// Scratch holds the reusable working storage of ClusterScratch: the
// assignment and centroid slices plus the update-step and seeding
// buffers that used to be reallocated every call (and, worse, every
// Lloyd iteration). The zero value is ready; buffers grow on demand and
// persist across calls.
type Scratch struct {
	assign    []int
	centroids []geom.Vec3
	sums      []geom.Vec3
	counts    []int
	d2        []float64
}

// Cluster runs k-means++ seeding followed by Lloyd's algorithm.
// The stream drives seeding; results are deterministic per stream state.
func Cluster(points []geom.Vec3, cfg Config, r *rng.Stream) (*Result, error) {
	var s Scratch
	return ClusterScratch(points, cfg, r, &s)
}

// ClusterScratch is Cluster with caller-owned working storage. The
// returned Result's Assign and Centroids alias the scratch and stay
// valid only until the next call with the same Scratch.
func ClusterScratch(points []geom.Vec3, cfg Config, r *rng.Stream, s *Scratch) (*Result, error) {
	if err := cfg.Validate(len(points)); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	centroids := seedPlusPlus(points, cfg.K, r, s)
	if cap(s.assign) < len(points) {
		s.assign = make([]int, len(points))
	}
	assign := s.assign[:len(points)]
	res := &Result{Centroids: centroids, Assign: assign}

	if cap(s.sums) < cfg.K {
		s.sums = make([]geom.Vec3, cfg.K)
		s.counts = make([]int, cfg.K)
	}
	sums, counts := s.sums[:cfg.K], s.counts[:cfg.K]
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		res.Iterations = iter + 1
		// Assignment step.
		changed := assignNearest(points, centroids, assign)
		// Update step.
		for c := range sums {
			sums[c] = geom.Vec3{}
			counts[c] = 0
		}
		for i, a := range assign {
			sums[a] = sums[a].Add(points[i])
			counts[a]++
		}
		maxMove := 0.0
		for c := range centroids {
			if counts[c] == 0 {
				// Empty cluster: respawn on the point farthest from its
				// centroid, the standard repair.
				centroids[c] = points[farthestPoint(points, centroids, assign)]
				maxMove = math.Inf(1)
				continue
			}
			next := sums[c].Scale(1 / float64(counts[c]))
			if m := next.Dist(centroids[c]); m > maxMove {
				maxMove = m
			}
			centroids[c] = next
		}
		if !changed && maxMove <= cfg.Tolerance {
			break
		}
	}
	assignNearest(points, centroids, assign)
	res.Cost = cost(points, centroids, assign)
	return res, nil
}

// seedPlusPlus picks K initial centroids with D² weighting
// (Arthur & Vassilvitskii, 2007), reusing the scratch's centroid and
// distance buffers.
func seedPlusPlus(points []geom.Vec3, k int, r *rng.Stream, s *Scratch) []geom.Vec3 {
	if cap(s.centroids) < k {
		s.centroids = make([]geom.Vec3, 0, k)
	}
	centroids := s.centroids[:0]
	centroids = append(centroids, points[r.Intn(len(points))])
	if cap(s.d2) < len(points) {
		s.d2 = make([]float64, len(points))
	}
	d2 := s.d2[:len(points)]
	for len(centroids) < k {
		total := 0.0
		last := centroids[len(centroids)-1]
		for i, p := range points {
			d := p.DistSq(last)
			if len(centroids) == 1 || d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
		if total == 0 {
			// All points coincide with centroids; duplicate arbitrarily.
			centroids = append(centroids, points[r.Intn(len(points))])
			continue
		}
		pick := r.Float64() * total
		idx := len(points) - 1
		for i, w := range d2 {
			pick -= w
			if pick <= 0 {
				idx = i
				break
			}
		}
		centroids = append(centroids, points[idx])
	}
	return centroids
}

// assignNearest fills assign with each point's nearest centroid index,
// reporting whether any assignment changed.
func assignNearest(points []geom.Vec3, centroids []geom.Vec3, assign []int) bool {
	changed := false
	for i, p := range points {
		best, bestD := 0, math.Inf(1)
		for c, ct := range centroids {
			if d := p.DistSq(ct); d < bestD {
				best, bestD = c, d
			}
		}
		if assign[i] != best {
			assign[i] = best
			changed = true
		}
	}
	return changed
}

func farthestPoint(points []geom.Vec3, centroids []geom.Vec3, assign []int) int {
	worst, worstD := 0, -1.0
	for i, p := range points {
		if d := p.DistSq(centroids[assign[i]]); d > worstD {
			worst, worstD = i, d
		}
	}
	return worst
}

func cost(points []geom.Vec3, centroids []geom.Vec3, assign []int) float64 {
	total := 0.0
	for i, p := range points {
		total += p.DistSq(centroids[assign[i]])
	}
	return total
}

// OptimalCost exhaustively solves the k-clustering problem for tiny
// inputs by enumerating all assignments of n points to k labeled
// clusters and returns the minimum k-means cost. Exponential (k^n): the
// EECP is NP-Complete (Theorem 2), so only n ≤ ~12 is feasible; used to
// measure how close the heuristics get to the true optimum.
func OptimalCost(points []geom.Vec3, k int) (float64, error) {
	n := len(points)
	if k <= 0 || k > n {
		return 0, fmt.Errorf("kmeans: invalid k=%d for %d points", k, n)
	}
	if n > 14 {
		return 0, fmt.Errorf("kmeans: OptimalCost is exponential; %d points exceeds the cap of 14", n)
	}
	assign := make([]int, n)
	best := math.Inf(1)
	var recurse func(i, used int)
	recurse = func(i, used int) {
		if i == n {
			if used < k {
				return
			}
			// Centroid of each cluster minimizes squared cost.
			sums := make([]geom.Vec3, k)
			counts := make([]int, k)
			for j, a := range assign {
				sums[a] = sums[a].Add(points[j])
				counts[a]++
			}
			total := 0.0
			for j, a := range assign {
				c := sums[a].Scale(1 / float64(counts[a]))
				total += points[j].DistSq(c)
			}
			if total < best {
				best = total
			}
			return
		}
		// Canonical labeling: point i may use clusters [0, used] only,
		// killing label permutations.
		lim := used
		if lim >= k {
			lim = k - 1
		}
		for c := 0; c <= lim; c++ {
			assign[i] = c
			nextUsed := used
			if c == used {
				nextUsed++
			}
			recurse(i+1, nextUsed)
		}
	}
	recurse(0, 0)
	return best, nil
}
