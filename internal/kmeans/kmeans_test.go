package kmeans

import (
	"math"
	"testing"

	"qlec/internal/geom"
	"qlec/internal/rng"
)

// threeBlobs returns points drawn around three well-separated centers.
func threeBlobs(seed uint64, per int) ([]geom.Vec3, []geom.Vec3) {
	r := rng.New(seed)
	centers := []geom.Vec3{{X: 20, Y: 20, Z: 20}, {X: 160, Y: 40, Z: 100}, {X: 80, Y: 170, Z: 60}}
	var pts []geom.Vec3
	for _, c := range centers {
		for i := 0; i < per; i++ {
			pts = append(pts, c.Add(geom.Vec3{
				X: 5 * r.NormFloat64(),
				Y: 5 * r.NormFloat64(),
				Z: 5 * r.NormFloat64(),
			}))
		}
	}
	return pts, centers
}

func TestClusterRecoversBlobs(t *testing.T) {
	pts, centers := threeBlobs(1, 60)
	res, err := Cluster(pts, Config{K: 3}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	// Every true center must have a centroid within a few units.
	for _, c := range centers {
		best := math.Inf(1)
		for _, ct := range res.Centroids {
			if d := ct.Dist(c); d < best {
				best = d
			}
		}
		if best > 5 {
			t.Fatalf("no centroid near blob center %v (closest %v away)", c, best)
		}
	}
	// Assignments are consistent with nearest centroid.
	for i, p := range pts {
		a := res.Assign[i]
		for c := range res.Centroids {
			if p.DistSq(res.Centroids[c]) < p.DistSq(res.Centroids[a])-1e-9 {
				t.Fatalf("point %d not assigned to nearest centroid", i)
			}
		}
	}
}

func TestClusterDeterministicPerStream(t *testing.T) {
	pts, _ := threeBlobs(3, 40)
	a, _ := Cluster(pts, Config{K: 3}, rng.New(7))
	b, _ := Cluster(pts, Config{K: 3}, rng.New(7))
	if a.Cost != b.Cost {
		t.Fatalf("costs differ across equal streams: %v vs %v", a.Cost, b.Cost)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("assignments differ across equal streams")
		}
	}
}

func TestClusterValidation(t *testing.T) {
	pts, _ := threeBlobs(4, 5)
	if _, err := Cluster(pts, Config{K: 0}, rng.New(1)); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := Cluster(pts, Config{K: len(pts) + 1}, rng.New(1)); err == nil {
		t.Fatal("K>n accepted")
	}
	if _, err := Cluster(pts, Config{K: 2, MaxIterations: -1}, rng.New(1)); err == nil {
		t.Fatal("negative iterations accepted")
	}
}

func TestClusterKEqualsN(t *testing.T) {
	pts := []geom.Vec3{{X: 1}, {X: 5}, {X: 9}}
	res, err := Cluster(pts, Config{K: 3}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > 1e-9 {
		t.Fatalf("K=n cost = %v, want 0", res.Cost)
	}
}

func TestClusterDuplicatePoints(t *testing.T) {
	pts := make([]geom.Vec3, 10)
	for i := range pts {
		pts[i] = geom.Vec3{X: 3, Y: 3, Z: 3}
	}
	res, err := Cluster(pts, Config{K: 3}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 {
		t.Fatalf("identical points cost = %v", res.Cost)
	}
}

func TestCostDecreasesWithK(t *testing.T) {
	pts, _ := threeBlobs(7, 50)
	prev := math.Inf(1)
	for _, k := range []int{1, 2, 3, 6} {
		res, err := Cluster(pts, Config{K: k}, rng.New(8))
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost > prev+1e-6 {
			t.Fatalf("cost rose from %v to %v at k=%d", prev, res.Cost, k)
		}
		prev = res.Cost
	}
}

func TestOptimalCostTinyExact(t *testing.T) {
	// Two obvious pairs on a line: optimal 2-clustering splits them.
	pts := []geom.Vec3{{X: 0}, {X: 1}, {X: 10}, {X: 11}}
	opt, err := OptimalCost(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Each pair contributes 2·(0.5)² = 0.5.
	if math.Abs(opt-1.0) > 1e-9 {
		t.Fatalf("optimal cost = %v, want 1.0", opt)
	}
}

func TestOptimalCostBounds(t *testing.T) {
	if _, err := OptimalCost(make([]geom.Vec3, 20), 2); err == nil {
		t.Fatal("oversized instance accepted")
	}
	if _, err := OptimalCost(make([]geom.Vec3, 5), 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := OptimalCost(make([]geom.Vec3, 3), 4); err == nil {
		t.Fatal("k>n accepted")
	}
}

// The headline approximation check: Lloyd's heuristic must land within a
// small factor of the NP-hard optimum on instances small enough to solve
// exactly.
func TestLloydNearOptimalOnTinyInstances(t *testing.T) {
	r := rng.New(9)
	box := geom.Cube(100)
	for trial := 0; trial < 10; trial++ {
		pts := box.SampleUniformN(r, 10)
		opt, err := OptimalCost(pts, 3)
		if err != nil {
			t.Fatal(err)
		}
		// Best of a few restarts, as standard.
		best := math.Inf(1)
		for restart := 0; restart < 5; restart++ {
			res, err := Cluster(pts, Config{K: 3}, r.Split(uint64(trial*10+restart)))
			if err != nil {
				t.Fatal(err)
			}
			best = math.Min(best, res.Cost)
		}
		if best > opt*1.25+1e-9 {
			t.Fatalf("trial %d: Lloyd cost %v vs optimal %v (ratio %v)",
				trial, best, opt, best/opt)
		}
	}
}

func BenchmarkCluster100(b *testing.B) {
	r := rng.New(10)
	pts := geom.Cube(200).SampleUniformN(r, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(pts, Config{K: 5}, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCluster2896(b *testing.B) {
	r := rng.New(11)
	pts := geom.Cube(1000).SampleUniformN(r, 2896)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(pts, Config{K: 272}, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func TestClusterScratchAllocs(t *testing.T) {
	r := rng.New(17)
	pts := geom.Cube(200).SampleUniformN(r, 100)
	var s Scratch
	if _, err := ClusterScratch(pts, Config{K: 5}, r, &s); err != nil {
		t.Fatal(err) // warm the scratch
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ClusterScratch(pts, Config{K: 5}, r, &s); err != nil {
			t.Fatal(err)
		}
	})
	// Steady state allocates only the Result header.
	if allocs > 1 {
		t.Fatalf("ClusterScratch allocates %.1f objects per call, want <= 1", allocs)
	}
}
