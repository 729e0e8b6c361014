package geom

import (
	"math"
	"testing"
	"testing/quick"

	"qlec/internal/rng"
)

func TestVec3Arithmetic(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, -5, 6}
	if got := a.Add(b); got != (Vec3{5, -3, 9}) {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec3{-3, 7, -3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Fatalf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 4-10+18 {
		t.Fatalf("Dot = %v", got)
	}
}

func TestNormAndDist(t *testing.T) {
	v := Vec3{3, 4, 12}
	if got := v.Norm(); got != 13 {
		t.Fatalf("Norm = %v, want 13", got)
	}
	if got := v.NormSq(); got != 169 {
		t.Fatalf("NormSq = %v, want 169", got)
	}
	a := Vec3{1, 1, 1}
	b := Vec3{1, 1, 4}
	if got := a.Dist(b); got != 3 {
		t.Fatalf("Dist = %v, want 3", got)
	}
	if got := a.DistSq(b); got != 9 {
		t.Fatalf("DistSq = %v, want 9", got)
	}
}

func TestLerp(t *testing.T) {
	a := Vec3{0, 0, 0}
	b := Vec3{2, 4, 6}
	if got := a.Lerp(b, 0.5); got != (Vec3{1, 2, 3}) {
		t.Fatalf("Lerp(0.5) = %v", got)
	}
	if got := a.Lerp(b, 0); got != a {
		t.Fatalf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Fatalf("Lerp(1) = %v", got)
	}
}

func TestCentroid(t *testing.T) {
	pts := []Vec3{{0, 0, 0}, {2, 0, 0}, {0, 2, 0}, {0, 0, 2}}
	want := Vec3{0.5, 0.5, 0.5}
	if got := Centroid(pts); got.Dist(want) > 1e-12 {
		t.Fatalf("Centroid = %v, want %v", got, want)
	}
	if got := Centroid(nil); got != (Vec3{}) {
		t.Fatalf("Centroid(nil) = %v", got)
	}
}

func TestIsFinite(t *testing.T) {
	if !(Vec3{1, 2, 3}).IsFinite() {
		t.Fatal("finite vector reported non-finite")
	}
	if (Vec3{math.NaN(), 0, 0}).IsFinite() {
		t.Fatal("NaN vector reported finite")
	}
	if (Vec3{0, math.Inf(1), 0}).IsFinite() {
		t.Fatal("Inf vector reported finite")
	}
}

func TestCubeProperties(t *testing.T) {
	c := Cube(200)
	if got := c.Center(); got != (Vec3{100, 100, 100}) {
		t.Fatalf("Center = %v", got)
	}
	if got := c.Volume(); got != 200*200*200 {
		t.Fatalf("Volume = %v", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBoxValidateRejectsDegenerate(t *testing.T) {
	bad := AABB{Min: Vec3{0, 0, 0}, Max: Vec3{1, 0, 1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("degenerate box validated")
	}
	nan := AABB{Min: Vec3{math.NaN(), 0, 0}, Max: Vec3{1, 1, 1}}
	if err := nan.Validate(); err == nil {
		t.Fatal("NaN box validated")
	}
}

func TestSampleUniformInside(t *testing.T) {
	r := rng.New(1)
	b := Cube(200)
	for _, p := range b.SampleUniformN(r, 5000) {
		if p.X < 0 || p.X >= 200 || p.Y < 0 || p.Y >= 200 || p.Z < 0 || p.Z >= 200 {
			t.Fatalf("sample %v escaped the half-open cube", p)
		}
	}
}

func TestSampleUniformMean(t *testing.T) {
	r := rng.New(2)
	b := Cube(200)
	c := Centroid(b.SampleUniformN(r, 100000))
	want := b.Center()
	if c.Dist(want) > 1.5 {
		t.Fatalf("sample centroid %v too far from %v", c, want)
	}
}

func TestSampleBallInsideAndLemma1Moment(t *testing.T) {
	// Lemma 1 underpinnings: for a uniform ball of radius R,
	// E[d²] = 3R²/5 (= ρ∫r⁴ sinφ dr dφ dθ evaluated).
	r := rng.New(3)
	center := Vec3{50, 60, 70}
	const radius = 30.0
	const n = 200000
	sum2 := 0.0
	for i := 0; i < n; i++ {
		p := SampleBall(r, center, radius)
		d2 := p.DistSq(center)
		if d2 > radius*radius*(1+1e-12) {
			t.Fatalf("ball sample escaped radius: d=%v", math.Sqrt(d2))
		}
		sum2 += d2
	}
	got := sum2 / n
	want := 3 * radius * radius / 5
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("E[d²] = %v, want %v (Lemma 1 moment)", got, want)
	}
}

func TestCoverageRadiusEq5(t *testing.T) {
	// Eq. (5): d_c = (3/(4πk))^(1/3) M. k balls of radius d_c must have
	// total volume equal to the cube volume.
	const M = 200.0
	for _, k := range []int{1, 2, 5, 17, 272} {
		dc := CoverageRadius(M, k)
		total := float64(k) * 4 / 3 * math.Pi * dc * dc * dc
		if math.Abs(total-M*M*M)/(M*M*M) > 1e-12 {
			t.Fatalf("k=%d: total ball volume %v != cube volume %v", k, total, M*M*M)
		}
	}
}

func TestCoverageRadiusPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CoverageRadius(·, 0) did not panic")
		}
	}()
	CoverageRadius(100, 0)
}

func TestMeanDistToPoint(t *testing.T) {
	pts := []Vec3{{0, 0, 0}, {2, 0, 0}}
	q := Vec3{1, 0, 0}
	if got := MeanDistToPoint(pts, q); got != 1 {
		t.Fatalf("MeanDistToPoint = %v", got)
	}
	if got := MeanDistToPoint(nil, q); got != 0 {
		t.Fatalf("MeanDistToPoint(nil) = %v", got)
	}
}

func TestExpectedMeanDistCubeToCenter(t *testing.T) {
	// The constant for a unit cube to its center is ≈ 0.4802959782...
	// (half-cube Robbins-style integral). Cross-check quadrature against
	// Monte Carlo.
	want := ExpectedMeanDistCubeToCenter(1)
	if math.Abs(want-0.4802959782) > 1e-6 {
		t.Fatalf("quadrature constant = %.10f, want ~0.4802959782", want)
	}
	r := rng.New(4)
	b := Cube(200)
	mc := MeanDistToPoint(b.SampleUniformN(r, 200000), b.Center())
	if math.Abs(mc-ExpectedMeanDistCubeToCenter(200))/mc > 0.01 {
		t.Fatalf("Monte Carlo %v vs quadrature %v", mc, ExpectedMeanDistCubeToCenter(200))
	}
}

func TestGridWithinRadiusMatchesBruteForce(t *testing.T) {
	r := rng.New(5)
	b := Cube(100)
	pts := b.SampleUniformN(r, 500)
	g := NewGrid(b, pts, nil, 0)
	for trial := 0; trial < 50; trial++ {
		q := b.SampleUniform(r)
		d := r.Range(1, 40)
		got := g.WithinRadius(q, d)
		var want []int
		for i, p := range pts {
			if p.Dist(q) <= d {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("WithinRadius count = %d, brute force %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("WithinRadius ids diverge at %d: %v vs %v", i, got, want)
			}
		}
	}
}

// TestGridAnyMatchesBruteForce checks Any against a scan of every
// point, for predicates that hold on no point, on some and on all.
func TestGridAnyMatchesBruteForce(t *testing.T) {
	r := rng.New(8)
	b := Cube(100)
	pts := b.SampleUniformN(r, 500)
	g := NewGrid(b, pts, nil, 0)
	for trial := 0; trial < 50; trial++ {
		q := b.SampleUniform(r)
		d := r.Range(1, 40)
		for _, m := range []int{1, 7, 1000} {
			pred := func(id int) bool { return id%m == 0 }
			want := false
			for i, p := range pts {
				if p.Dist(q) <= d && pred(i) {
					want = true
				}
			}
			if got := g.Any(q, d, pred); got != want {
				t.Fatalf("Any(%v, %v, id%%%d == 0) = %v, brute force %v", q, d, m, got, want)
			}
		}
	}
	if g.Any(b.Center(), -1, func(int) bool { return true }) {
		t.Fatal("Any with a negative radius found a point")
	}
}

func TestGridNearestMatchesBruteForce(t *testing.T) {
	r := rng.New(6)
	b := Cube(100)
	pts := b.SampleUniformN(r, 300)
	g := NewGrid(b, pts, nil, 0)
	for trial := 0; trial < 200; trial++ {
		q := b.SampleUniform(r)
		id, dist, ok := g.Nearest(q)
		if !ok {
			t.Fatal("Nearest reported empty grid")
		}
		bestID, best := -1, math.Inf(1)
		for i, p := range pts {
			if d := p.Dist(q); d < best {
				best = d
				bestID = i
			}
		}
		if id != bestID || math.Abs(dist-best) > 1e-12 {
			t.Fatalf("Nearest = (%d, %v), brute force (%d, %v)", id, dist, bestID, best)
		}
	}
}

func TestGridCustomIDs(t *testing.T) {
	b := Cube(10)
	pts := []Vec3{{1, 1, 1}, {9, 9, 9}}
	g := NewGrid(b, pts, []int{100, 200}, 0)
	got := g.WithinRadius(Vec3{1, 1, 1}, 2)
	if len(got) != 1 || got[0] != 100 {
		t.Fatalf("WithinRadius with custom ids = %v", got)
	}
	id, _, ok := g.Nearest(Vec3{8, 8, 8})
	if !ok || id != 200 {
		t.Fatalf("Nearest with custom ids = %d, %v", id, ok)
	}
}

func TestGridEmpty(t *testing.T) {
	g := NewGrid(Cube(10), nil, nil, 0)
	if _, _, ok := g.Nearest(Vec3{1, 1, 1}); ok {
		t.Fatal("Nearest on empty grid returned ok")
	}
	if got := g.WithinRadius(Vec3{1, 1, 1}, 5); len(got) != 0 {
		t.Fatalf("WithinRadius on empty grid = %v", got)
	}
}

func TestGridPointOutsideBounds(t *testing.T) {
	// Points and queries outside the nominal bounds must not panic;
	// they are clamped into the boundary cells.
	b := Cube(10)
	pts := []Vec3{{-5, 3, 3}, {15, 3, 3}, {5, 5, 5}}
	g := NewGrid(b, pts, nil, 0)
	id, _, ok := g.Nearest(Vec3{-100, 3, 3})
	if !ok || id != 0 {
		t.Fatalf("Nearest outside bounds = %d, %v", id, ok)
	}
	in := g.WithinRadius(Vec3{-5, 3, 3}, 1)
	if len(in) != 1 || in[0] != 0 {
		t.Fatalf("WithinRadius outside bounds = %v", in)
	}
}

func TestGridNegativeRadius(t *testing.T) {
	b := Cube(10)
	g := NewGrid(b, []Vec3{{5, 5, 5}}, nil, 0)
	if got := g.WithinRadius(Vec3{5, 5, 5}, -1); got != nil {
		t.Fatalf("negative radius returned %v", got)
	}
}

// Property: distance is symmetric and satisfies the triangle inequality.
func TestDistanceMetricQuick(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz, cx, cy, cz int8) bool {
		a := Vec3{float64(ax), float64(ay), float64(az)}
		b := Vec3{float64(bx), float64(by), float64(bz)}
		c := Vec3{float64(cx), float64(cy), float64(cz)}
		if math.Abs(a.Dist(b)-b.Dist(a)) > 1e-9 {
			return false
		}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Eq. (5) radius shrinks monotonically in k.
func TestCoverageRadiusMonotoneQuick(t *testing.T) {
	f := func(k uint8) bool {
		kk := int(k)%100 + 1
		return CoverageRadius(200, kk+1) < CoverageRadius(200, kk)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGridWithinRadius(b *testing.B) {
	r := rng.New(7)
	box := Cube(200)
	pts := box.SampleUniformN(r, 2896)
	g := NewGrid(box, pts, nil, 0)
	q := box.Center()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.WithinRadius(q, 25)
	}
}

func BenchmarkGridNearest(b *testing.B) {
	r := rng.New(8)
	box := Cube(200)
	pts := box.SampleUniformN(r, 2896)
	g := NewGrid(box, pts, nil, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = g.Nearest(box.SampleUniform(r))
	}
}
