package fcm

import (
	"math"
	"testing"

	"qlec/internal/geom"
	"qlec/internal/rng"
)

func blobs(seed uint64, per int) ([]geom.Vec3, []geom.Vec3) {
	r := rng.New(seed)
	centers := []geom.Vec3{{X: 30, Y: 30, Z: 30}, {X: 170, Y: 150, Z: 60}}
	var pts []geom.Vec3
	for _, c := range centers {
		for i := 0; i < per; i++ {
			pts = append(pts, c.Add(geom.Vec3{
				X: 6 * r.NormFloat64(), Y: 6 * r.NormFloat64(), Z: 6 * r.NormFloat64(),
			}))
		}
	}
	return pts, centers
}

func TestClusterFindsBlobCenters(t *testing.T) {
	pts, centers := blobs(1, 80)
	res, err := ClusterScratch(pts, 2, rng.New(2), new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range centers {
		best := math.Inf(1)
		for _, v := range centersOf(pts, res.U) {
			if d := v.Dist(c); d < best {
				best = d
			}
		}
		if best > 5 {
			t.Fatalf("no FCM center near %v (closest %v)", c, best)
		}
	}
}

func TestMembershipRowsSumToOne(t *testing.T) {
	pts, _ := blobs(3, 40)
	res, err := ClusterScratch(pts, 3, rng.New(4), new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.U {
		sum := 0.0
		for _, u := range row {
			if u < -1e-12 || u > 1+1e-12 {
				t.Fatalf("membership out of [0,1]: %v", u)
			}
			sum += u
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestHardAssignSeparatesBlobs(t *testing.T) {
	pts, _ := blobs(5, 50)
	res, err := ClusterScratch(pts, 2, rng.New(6), new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	assign := res.HardAssignInto(nil)
	// All of blob 1 in one cluster, all of blob 2 in the other.
	first := assign[0]
	for i := 1; i < 50; i++ {
		if assign[i] != first {
			t.Fatalf("blob 1 split: point %d", i)
		}
	}
	for i := 50; i < 100; i++ {
		if assign[i] == first {
			t.Fatalf("blob 2 merged into blob 1: point %d", i)
		}
	}
}

func TestClusterDeterministic(t *testing.T) {
	pts, _ := blobs(7, 30)
	a, _ := ClusterScratch(pts, 2, rng.New(8), new(Scratch))
	b, _ := ClusterScratch(pts, 2, rng.New(8), new(Scratch))
	for i := range a.U {
		for c := range a.U[i] {
			if a.U[i][c] != b.U[i][c] {
				t.Fatal("FCM not deterministic per stream")
			}
		}
	}
}

func TestClusterValidation(t *testing.T) {
	pts, _ := blobs(9, 5)
	if _, err := ClusterScratch(pts, 0, rng.New(1), new(Scratch)); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := ClusterScratch(pts, 100, rng.New(1), new(Scratch)); err == nil {
		t.Fatal("K>n accepted")
	}
}

func TestClusterPointOnCenter(t *testing.T) {
	// A point exactly on a prototype must get crisp membership without
	// dividing by zero.
	pts := []geom.Vec3{{X: 0}, {X: 0}, {X: 0}, {X: 100}, {X: 100}, {X: 100}}
	res, err := ClusterScratch(pts, 2, rng.New(10), new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.U {
		for _, u := range row {
			if math.IsNaN(u) {
				t.Fatalf("NaN membership at point %d", i)
			}
		}
	}
	assign := res.HardAssignInto(nil)
	if assign[0] == assign[3] {
		t.Fatal("coincident clusters not separated")
	}
}

func TestObjectiveDecreasesWithK(t *testing.T) {
	pts, _ := blobs(11, 60)
	prev := math.Inf(1)
	for _, k := range []int{1, 2, 4} {
		res, err := ClusterScratch(pts, k, rng.New(12), new(Scratch))
		if err != nil {
			t.Fatal(err)
		}
		obj := objective(pts, res.U)
		if obj > prev+1e-6 {
			t.Fatalf("objective rose from %v to %v at k=%d", prev, obj, k)
		}
		prev = obj
	}
}

func TestTiers(t *testing.T) {
	dists := []float64{0, 10, 45, 50, 90, 100}
	tiers, err := TiersInto(dists, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1, 1, 2, 2}
	for i := range want {
		if tiers[i] != want[i] {
			t.Fatalf("tiers = %v, want %v", tiers, want)
		}
	}
}

func TestTiersMonotone(t *testing.T) {
	dists := []float64{5, 80, 20, 60, 99}
	tiers, err := TiersInto(dists, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dists {
		for j := range dists {
			if dists[i] < dists[j] && tiers[i] > tiers[j] {
				t.Fatalf("tier ordering violates distance ordering: %v -> %v", dists, tiers)
			}
		}
	}
}

func TestTiersErrors(t *testing.T) {
	if _, err := TiersInto(nil, 3, nil); err == nil {
		t.Fatal("empty dists accepted")
	}
	if _, err := TiersInto([]float64{1}, 0, nil); err == nil {
		t.Fatal("zero levels accepted")
	}
	if _, err := TiersInto([]float64{-1}, 3, nil); err == nil {
		t.Fatal("negative distance accepted")
	}
	if _, err := TiersInto([]float64{math.NaN()}, 3, nil); err == nil {
		t.Fatal("NaN distance accepted")
	}
}

func TestTiersAllZeroDistance(t *testing.T) {
	tiers, err := TiersInto([]float64{0, 0}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tiers[0] != 0 || tiers[1] != 0 {
		t.Fatalf("tiers = %v", tiers)
	}
}

func BenchmarkCluster100K5(b *testing.B) {
	r := rng.New(13)
	pts := geom.Cube(200).SampleUniformN(r, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ClusterScratch(pts, 5, rng.New(uint64(i)), new(Scratch)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCoincidentCentersSplitMembership(t *testing.T) {
	// Two prototypes collapsed onto the same position, with a point
	// sitting exactly on them: the crisp membership must split uniformly
	// across the coincident pair (giving the whole mass to whichever
	// center came first starves the other to zero and is order-dependent).
	points := []geom.Vec3{{X: 0}, {X: 10}}
	centers := []geom.Vec3{{X: 0}, {X: 0}, {X: 10}}
	u := [][]float64{{1, 0, 0}, {0, 0, 1}}
	d := make([]float64, 3)
	inv := make([]float64, 3)
	updateMemberships(points, u, centers, d, inv)
	if u[0][0] != 0.5 || u[0][1] != 0.5 || u[0][2] != 0 {
		t.Fatalf("coincident membership row = %v, want [0.5 0.5 0]", u[0])
	}
	if u[1][0] != 0 || u[1][1] != 0 || u[1][2] != 1 {
		t.Fatalf("point on single center got row %v, want [0 0 1]", u[1])
	}
}

func TestCoincidentCentersEndToEnd(t *testing.T) {
	// Seeded regression for the full pipeline: with more clusters than
	// distinct positions, prototypes must collapse onto shared positions
	// and every membership row has to stay a clean distribution — no NaN,
	// no row starved to zero mass.
	points := []geom.Vec3{
		{X: 0}, {X: 0}, {X: 0}, {X: 0},
		{X: 50}, {X: 50}, {X: 50}, {X: 50},
	}
	res, err := ClusterScratch(points, 4, rng.New(77), new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.U {
		sum := 0.0
		for _, u := range row {
			if math.IsNaN(u) || u < 0 || u > 1 {
				t.Fatalf("point %d has invalid membership %v", i, row)
			}
			sum += u
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("point %d membership row sums to %v: %v", i, sum, row)
		}
	}
}

func TestDeadCenterReseededFromStream(t *testing.T) {
	// A prototype whose membership mass underflows to zero must be
	// re-seeded on a point drawn from the stream — deterministically, so
	// two runs from the same stream state agree — rather than freezing at
	// its stale position.
	points := []geom.Vec3{{X: 1}, {X: 2}, {X: 3}, {X: 4}}
	u := [][]float64{{1, 0}, {1, 0}, {1, 0}, {1, 0}} // center 1 has no mass
	run := func() geom.Vec3 {
		centers := []geom.Vec3{{}, {X: -99}}
		updateCenters(points, u, centers, rng.New(5))
		return centers[1]
	}
	got := run()
	want := points[rng.New(5).Intn(len(points))]
	if got != want {
		t.Fatalf("dead center re-seeded at %v, want stream-determined %v", got, want)
	}
	if again := run(); again != got {
		t.Fatalf("re-seed not deterministic: %v then %v", got, again)
	}
}

func TestClusterScratchAllocs(t *testing.T) {
	r := rng.New(13)
	pts := geom.Cube(200).SampleUniformN(r, 100)
	var s Scratch
	if _, err := ClusterScratch(pts, 5, r, &s); err != nil {
		t.Fatal(err) // warm the scratch
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ClusterScratch(pts, 5, r, &s); err != nil {
			t.Fatal(err)
		}
	})
	// Steady state allocates only the Result header.
	if allocs > 1 {
		t.Fatalf("ClusterScratch allocates %.1f objects per call, want <= 1", allocs)
	}
}

// centersOf computes the prototypes v_c = Σᵢ u_ic² xᵢ / Σᵢ u_ic² of a
// membership matrix under the fuzzifier m=2.
func centersOf(points []geom.Vec3, u [][]float64) []geom.Vec3 {
	centers := make([]geom.Vec3, len(u[0]))
	for c := range centers {
		var num geom.Vec3
		den := 0.0
		for i, p := range points {
			w := u[i][c] * u[i][c]
			num = num.Add(p.Scale(w))
			den += w
		}
		if den > 0 {
			centers[c] = num.Scale(1 / den)
		}
	}
	return centers
}

// objective is the FCM objective Σᵢ Σ_c u_ic² ‖xᵢ−v_c‖² (m=2) of a
// membership matrix, with the prototypes it implies.
func objective(points []geom.Vec3, u [][]float64) float64 {
	centers := centersOf(points, u)
	obj := 0.0
	for i, p := range points {
		for c, v := range centers {
			obj += u[i][c] * u[i][c] * p.DistSq(v)
		}
	}
	return obj
}
