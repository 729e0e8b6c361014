// Package fcm implements the FCM-based baseline of the paper's
// evaluation: Fuzzy C-Means clustering (Bezdek, m=2) plus the
// hierarchical multi-hop routing scheme of Wang, Qin & Liu, "An
// energy-efficient clustering routing algorithm for WSN-assisted IoT"
// (WCNC 2018), the paper's reference [14].
//
// The scheme: FCM partitions nodes into k fuzzy clusters; each cluster's
// head is chosen to maximize residual energy among the nodes with high
// membership (the WCNC'18 scheme "employs the concept of maximizing
// residual energy when choosing cluster heads", §2); the network is
// divided into hierarchies by distance to the base station, and heads
// forward fused packets hop by hop through heads in lower hierarchies
// toward the BS — the multi-hop behaviour the QLEC paper blames for
// FCM's packet loss under congestion ("it takes multi-hops to transmit a
// packet to the BS under this model", §5.2).
package fcm

import (
	"fmt"
	"math"

	"qlec/internal/geom"
	"qlec/internal/rng"
)

// Clustering uses the standard fuzzifier m=2, built into both update
// steps. The update loop runs at most maxIterations times and stops
// once the largest membership change falls below tolerance.
const (
	maxIterations = 150
	tolerance     = 1e-6
)

// Result is a fuzzy clustering.
type Result struct {
	// U is the membership matrix: U[i][c] ∈ [0,1] is point i's degree of
	// membership in cluster c; rows sum to 1.
	U [][]float64
}

// HardAssignInto writes each point's highest-membership cluster into
// dst, growing it if needed, and returns the filled slice. Callers on
// the per-round hot path pass a reused buffer to avoid the allocation.
func (r *Result) HardAssignInto(dst []int) []int {
	dst = growInts(dst, len(r.U))
	for i, row := range r.U {
		best, bestU := 0, -1.0
		for c, u := range row {
			if u > bestU {
				best, bestU = c, u
			}
		}
		dst[i] = best
	}
	return dst
}

// Scratch holds the reusable working storage of ClusterScratch: the
// membership matrix backing, the prototype slice, and the per-point
// distance buffers of the membership update. The zero value is ready;
// buffers grow on demand and persist across calls, so steady-state
// clustering performs no per-call allocation beyond the Result header.
type Scratch struct {
	uBack   []float64 // flat n×k backing for the membership rows
	u       [][]float64
	centers []geom.Vec3
	d       []float64 // point→center distances
	inv     []float64 // inverse squared distances
}

// ClusterScratch runs fuzzy c-means with k clusters in caller-owned
// working storage. The stream seeds the initial membership matrix;
// results are deterministic per stream state. The returned Result's U
// aliases the scratch and stays valid only until the next call with
// the same Scratch; callers who need the clustering to outlive the
// scratch must copy.
func ClusterScratch(points []geom.Vec3, k int, r *rng.Stream, s *Scratch) (*Result, error) {
	n := len(points)
	if k <= 0 {
		return nil, fmt.Errorf("fcm: K must be positive, got %d", k)
	}
	if k > n {
		return nil, fmt.Errorf("fcm: K=%d exceeds point count %d", k, n)
	}

	// Random row-stochastic initial memberships, in one flat backing
	// array: row i is uBack[i*k : (i+1)*k], so the whole matrix is two
	// allocations instead of n+1 and iterates cache-linearly.
	if cap(s.uBack) < n*k {
		s.uBack = make([]float64, n*k)
	}
	s.uBack = s.uBack[:n*k]
	if cap(s.u) < n {
		s.u = make([][]float64, n)
	}
	s.u = s.u[:n]
	u := s.u
	for i := range u {
		u[i] = s.uBack[i*k : (i+1)*k : (i+1)*k]
		total := 0.0
		for c := range u[i] {
			v := r.Float64() + 1e-9
			u[i][c] = v
			total += v
		}
		for c := range u[i] {
			u[i][c] /= total
		}
	}
	if cap(s.centers) < k {
		s.centers = make([]geom.Vec3, k)
	}
	s.centers = s.centers[:k]
	if cap(s.d) < k {
		s.d = make([]float64, k)
		s.inv = make([]float64, k)
	}
	s.d, s.inv = s.d[:k], s.inv[:k]
	centers := s.centers
	for c := range centers {
		centers[c] = geom.Vec3{}
	}

	// The fuzzifier m=2 turns both update steps into plain
	// multiplications: u^m = u·u and (d_c/d_j)^(2/(m−1)) = (d_c/d_j)².
	// The membership update needs no math.Pow, and it collapses from
	// O(k²) ratio terms per point to O(k) precomputed inverse squared
	// distances.
	for range maxIterations {
		updateCenters(points, u, centers, r)
		if updateMemberships(points, u, centers, s.d, s.inv) < tolerance {
			break
		}
	}
	return &Result{U: u}, nil
}

// updateCenters recomputes each prototype v_c = Σ u² x / Σ u². A
// center whose membership mass underflows to den == 0 (possible once
// crisp memberships appear) is re-seeded on a point drawn uniformly
// from the stream — leaving it at its stale (or zero-value) position
// would freeze a dead prototype in place forever.
func updateCenters(points []geom.Vec3, u [][]float64, centers []geom.Vec3, r *rng.Stream) {
	for c := range centers {
		var num geom.Vec3
		den := 0.0
		for i, p := range points {
			uv := u[i][c]
			w := uv * uv
			num = num.Add(p.Scale(w))
			den += w
		}
		if den > 0 {
			centers[c] = num.Scale(1 / den)
		} else {
			centers[c] = points[r.Intn(len(points))]
		}
	}
}

// updateMemberships recomputes u_ic = (1/d_ic²) / Σ_j (1/d_ij²) and
// returns the largest membership change. A point coincident with one or
// more centers gets crisp membership split uniformly across all
// coincident centers (several prototypes can collapse onto the same
// position; giving the whole mass to one of them is order-dependent and
// starves the others' mass to zero).
func updateMemberships(points []geom.Vec3, u [][]float64, centers []geom.Vec3, d, inv []float64) float64 {
	k := len(centers)
	maxDelta := 0.0
	for i, p := range points {
		row := u[i]
		coincident := 0
		for c := range centers {
			dc := p.Dist(centers[c])
			d[c] = dc
			if dc == 0 {
				coincident++
			}
		}
		if coincident > 0 {
			share := 1 / float64(coincident)
			for c := 0; c < k; c++ {
				next := 0.0
				if d[c] == 0 {
					next = share
				}
				if delta := math.Abs(next - row[c]); delta > maxDelta {
					maxDelta = delta
				}
				row[c] = next
			}
			continue
		}
		total := 0.0
		for c := 0; c < k; c++ {
			v := 1 / (d[c] * d[c])
			inv[c] = v
			total += v
		}
		for c := 0; c < k; c++ {
			next := inv[c] / total
			if delta := math.Abs(next - row[c]); delta > maxDelta {
				maxDelta = delta
			}
			row[c] = next
		}
	}
	return maxDelta
}

func growInts(dst []int, n int) []int {
	if cap(dst) < n {
		return make([]int, n)
	}
	return dst[:n]
}

// TiersInto partitions head candidates into hierarchy levels by
// distance to the base station, per the WCNC'18 scheme ("divides the
// WSN into different hierarchies based on the distance to the BS").
// Level 0 is the innermost ring (closest to the BS). levels must be
// >= 1. It writes into dst, grown if needed; the per-round protocol
// adapters reuse one buffer across rounds.
func TiersInto(dists []float64, levels int, dst []int) ([]int, error) {
	if levels < 1 {
		return nil, fmt.Errorf("fcm: levels must be >= 1, got %d", levels)
	}
	if len(dists) == 0 {
		return nil, fmt.Errorf("fcm: no distances given")
	}
	maxD := 0.0
	for _, d := range dists {
		if d < 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("fcm: invalid distance %v", d)
		}
		if d > maxD {
			maxD = d
		}
	}
	dst = growInts(dst, len(dists))
	if maxD == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst, nil
	}
	for i, d := range dists {
		lvl := int(float64(levels) * d / maxD)
		if lvl >= levels {
			lvl = levels - 1
		}
		dst[i] = lvl
	}
	return dst, nil
}
