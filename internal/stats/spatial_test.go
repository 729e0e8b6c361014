package stats

import (
	"errors"
	"math"
	"testing"

	"qlec/internal/geom"
	"qlec/internal/rng"
)

func uniformField(seed uint64, n int, value func(p geom.Vec3, r *rng.Stream) float64) SpatialField {
	r := rng.New(seed)
	box := geom.Cube(100)
	pts := box.SampleUniformN(r, n)
	vals := make([]float64, n)
	for i, p := range pts {
		vals[i] = value(p, r)
	}
	return SpatialField{Points: pts, Values: vals}
}

func TestSpatialFieldValidate(t *testing.T) {
	f := SpatialField{Points: []geom.Vec3{{}}, Values: []float64{1, 2}}
	if err := f.Validate(); err == nil {
		t.Fatal("mismatched field validated")
	}
	empty := SpatialField{}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty field validated")
	}
}

func TestBinnedCVDistinguishesEvenFromHotspot(t *testing.T) {
	box := geom.Cube(100)
	even := uniformField(1, 4000, func(p geom.Vec3, r *rng.Stream) float64 {
		return 0.5 + 0.01*r.NormFloat64() // spatially flat
	})
	hot := uniformField(2, 4000, func(p geom.Vec3, r *rng.Stream) float64 {
		// Consumption concentrated near the origin corner.
		return math.Exp(-p.Norm() / 30)
	})
	cvEven, err := even.BinnedCV(box, 4)
	if err != nil {
		t.Fatal(err)
	}
	cvHot, err := hot.BinnedCV(box, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cvEven >= cvHot {
		t.Fatalf("BinnedCV failed to separate even (%v) from hotspot (%v)", cvEven, cvHot)
	}
	if cvEven > 0.1 {
		t.Fatalf("even field CV too high: %v", cvEven)
	}
}

func TestBinnedCVValidation(t *testing.T) {
	f := uniformField(3, 100, func(geom.Vec3, *rng.Stream) float64 { return 1 })
	if _, err := f.BinnedCV(geom.Cube(100), 0); err == nil {
		t.Fatal("side=0 accepted")
	}
	bad := SpatialField{Points: []geom.Vec3{{}}, Values: nil}
	if _, err := bad.BinnedCV(geom.Cube(100), 4); err == nil {
		t.Fatal("invalid field accepted")
	}
}

func TestMoranIDetectsClustering(t *testing.T) {
	box := geom.Cube(100)
	_ = box
	clustered := uniformField(4, 800, func(p geom.Vec3, r *rng.Stream) float64 {
		// Smooth spatial gradient → strong positive autocorrelation.
		return p.X / 100
	})
	random := uniformField(5, 800, func(p geom.Vec3, r *rng.Stream) float64 {
		return r.Float64()
	})
	iClustered, err := clustered.MoranI(25)
	if err != nil {
		t.Fatal(err)
	}
	iRandom, err := random.MoranI(25)
	if err != nil {
		t.Fatal(err)
	}
	if iClustered < 0.3 {
		t.Fatalf("Moran's I for gradient field = %v, want strongly positive", iClustered)
	}
	if math.Abs(iRandom) > 0.1 {
		t.Fatalf("Moran's I for random field = %v, want ~0", iRandom)
	}
}

// TestMoranIErrors: the two data-dependent cases are ErrMoranIUndefined;
// argument errors are not.
func TestMoranIErrors(t *testing.T) {
	constant := SpatialField{
		Points: []geom.Vec3{{X: 1}, {X: 2}},
		Values: []float64{3, 3},
	}
	if _, err := constant.MoranI(10); !errors.Is(err, ErrMoranIUndefined) {
		t.Fatalf("constant field: err = %v, want ErrMoranIUndefined", err)
	}
	far := SpatialField{
		Points: []geom.Vec3{{X: 0}, {X: 1000}},
		Values: []float64{1, 2},
	}
	if _, err := far.MoranI(1); !errors.Is(err, ErrMoranIUndefined) {
		t.Fatalf("no neighbour pairs: err = %v, want ErrMoranIUndefined", err)
	}
	f := uniformField(6, 10, func(geom.Vec3, *rng.Stream) float64 { return 1 })
	if _, err := f.MoranI(0); err == nil || errors.Is(err, ErrMoranIUndefined) {
		t.Fatalf("zero radius: err = %v, want an argument error", err)
	}
	short := SpatialField{Points: far.Points, Values: far.Values[:1]}
	if _, err := short.MoranI(10); err == nil || errors.Is(err, ErrMoranIUndefined) {
		t.Fatalf("length mismatch: err = %v, want an argument error", err)
	}
}

func TestGiniCoefficient(t *testing.T) {
	g, err := GiniCoefficient([]float64{1, 1, 1, 1})
	if err != nil || math.Abs(g) > 1e-12 {
		t.Fatalf("Gini of equal values = %v, %v", g, err)
	}
	// All value at one holder: Gini → (n-1)/n = 0.75 for n=4.
	g, err = GiniCoefficient([]float64{0, 0, 0, 8})
	if err != nil || math.Abs(g-0.75) > 1e-12 {
		t.Fatalf("Gini of concentrated values = %v, %v", g, err)
	}
	if _, err := GiniCoefficient(nil); err == nil {
		t.Fatal("empty sample accepted")
	}
	if _, err := GiniCoefficient([]float64{-1, 2}); err == nil {
		t.Fatal("negative value accepted")
	}
	g, err = GiniCoefficient([]float64{0, 0})
	if err != nil || g != 0 {
		t.Fatalf("Gini of all-zero = %v, %v", g, err)
	}
}

func BenchmarkBinnedCV(b *testing.B) {
	f := uniformField(7, 2896, func(p geom.Vec3, r *rng.Stream) float64 { return r.Float64() })
	box := geom.Cube(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.BinnedCV(box, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// moranIPairs is the all-pairs Moran's I that the grid search in MoranI
// replaces: every ordered pair, summed in ascending j for each i.
func moranIPairs(f SpatialField, radius float64) float64 {
	n := len(f.Points)
	mean := Mean(f.Values)
	var denom float64
	for _, v := range f.Values {
		d := v - mean
		denom += d * d
	}
	var num, wSum float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := f.Points[i].Dist(f.Points[j])
			if d > radius || d == 0 {
				continue
			}
			w := 1 / d
			wSum += w
			num += w * (f.Values[i] - mean) * (f.Values[j] - mean)
		}
	}
	return float64(n) / wSum * num / denom
}

// TestMoranIMatchesAllPairs pins the grid search bit for bit against
// the all-pairs loop on random, clustered, duplicate-point and
// on-the-radius fields, far from the origin too, at radii from below
// the point spacing to beyond the box.
func TestMoranIMatchesAllPairs(t *testing.T) {
	r := rng.New(11)
	fig4 := geom.AABB{Max: geom.Vec3{X: 1000, Y: 1000, Z: 100}}
	values := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = r.Float64()
		}
		return v
	}
	random := SpatialField{Points: fig4.SampleUniformN(r, 1500), Values: values(1500)}

	var blobs []geom.Vec3
	for c := 0; c < 6; c++ {
		centre := fig4.SampleUniformN(r, 1)[0]
		for i := 0; i < 150; i++ {
			blobs = append(blobs, centre.Add(geom.Vec3{X: 20 * r.NormFloat64(), Y: 20 * r.NormFloat64(), Z: 5 * r.NormFloat64()}))
		}
	}
	clustered := SpatialField{Points: blobs, Values: values(len(blobs))}

	dups := append([]geom.Vec3(nil), random.Points[:300]...)
	dups = append(dups, random.Points[:300]...)
	dups = append(dups, random.Points[:100]...)
	duplicate := SpatialField{Points: dups, Values: values(len(dups))}

	// A lattice of pitch 5: at radius 5, 10 or 5√2 many pairs sit
	// exactly on the radius and must be counted.
	var lattice []geom.Vec3
	for x := 0; x < 12; x++ {
		for y := 0; y < 12; y++ {
			for z := 0; z < 4; z++ {
				lattice = append(lattice, geom.Vec3{X: 5 * float64(x), Y: 5 * float64(y), Z: 5 * float64(z)})
			}
		}
	}
	onRadius := SpatialField{Points: lattice, Values: values(len(lattice))}

	shifted := make([]geom.Vec3, len(lattice))
	for i, p := range lattice {
		shifted[i] = p.Add(geom.Vec3{X: 1e7, Y: -3e6, Z: 1e5})
	}
	far := SpatialField{Points: shifted, Values: onRadius.Values}

	for _, tc := range []struct {
		name  string
		f     SpatialField
		radii []float64
	}{
		{"random", random, []float64{0.5, 30, 125, 400, 5000}},
		{"clustered", clustered, []float64{1, 15, 125}},
		{"duplicate", duplicate, []float64{40, 125}},
		{"on-radius", onRadius, []float64{5, 10, 5 * math.Sqrt2, math.Nextafter(5, 0), 60}},
		{"far-from-origin", far, []float64{5, 10, 5 * math.Sqrt2}},
	} {
		for _, radius := range tc.radii {
			got, err := tc.f.MoranI(radius)
			want := moranIPairs(tc.f, radius)
			if err != nil {
				if !math.IsNaN(want) {
					t.Errorf("%s radius %v: %v, all-pairs gives %v", tc.name, radius, err, want)
				}
				continue
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s radius %v: grid %v, all pairs %v", tc.name, radius, got, want)
			}
		}
	}
}

func TestMoranIRejectsNonFinitePoints(t *testing.T) {
	f := SpatialField{
		Points: []geom.Vec3{{X: 1}, {X: 2}, {X: math.NaN()}},
		Values: []float64{1, 2, 3},
	}
	if _, err := f.MoranI(10); err == nil || errors.Is(err, ErrMoranIUndefined) {
		t.Fatalf("NaN coordinate: err = %v, want an argument error", err)
	}
	f.Points[2] = geom.Vec3{Y: math.Inf(1)}
	if _, err := f.MoranI(10); err == nil || errors.Is(err, ErrMoranIUndefined) {
		t.Fatalf("infinite coordinate: err = %v, want an argument error", err)
	}
}

// BenchmarkMoranIN10k times one Moran's I over 10⁴ uniform points in
// the 1000×1000×100 m Fig. 4 box at Fig. 4's radius, side/8.
func BenchmarkMoranIN10k(b *testing.B) {
	r := rng.New(2019)
	pts := geom.AABB{Max: geom.Vec3{X: 1000, Y: 1000, Z: 100}}.SampleUniformN(r, 10000)
	vals := make([]float64, len(pts))
	for i := range vals {
		vals[i] = r.Float64()
	}
	f := SpatialField{Points: pts, Values: vals}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.MoranI(125); err != nil {
			b.Fatal(err)
		}
	}
}
