package dataset

import (
	"math"
	"strings"
	"testing"

	"qlec/internal/energy"
	"qlec/internal/geom"
	"qlec/internal/rng"
	"qlec/internal/stats"
)

func TestSynthesizeDefaults(t *testing.T) {
	d, err := Synthesize(DefaultSynthConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Positions) != 2896 {
		t.Fatalf("N = %d, paper's China subset has 2896", len(d.Positions))
	}
	for i, p := range d.Positions {
		if !inBox(d.Box, p) {
			t.Fatalf("node %d outside box: %v", i, p)
		}
	}
	if !inBox(d.Box, d.BS) {
		t.Fatalf("BS outside box: %v", d.BS)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a, _ := Synthesize(DefaultSynthConfig())
	b, _ := Synthesize(DefaultSynthConfig())
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] || a.Energies[i] != b.Energies[i] {
			t.Fatalf("node %d differs across identical configs", i)
		}
	}
	c := DefaultSynthConfig()
	c.Seed = 777
	alt, _ := Synthesize(c)
	if alt.Positions[0] == a.Positions[0] && alt.Positions[1] == a.Positions[1] {
		t.Fatal("different seeds produced identical placements")
	}
}

func TestSynthesizeValidation(t *testing.T) {
	for _, mut := range []func(*SynthConfig){
		func(c *SynthConfig) { c.N = 0 },
		func(c *SynthConfig) { c.Side = 0 },
		func(c *SynthConfig) { c.MaxHeight = -1 },
		func(c *SynthConfig) { c.MeanEnergy = 0 },
	} {
		c := DefaultSynthConfig()
		mut(&c)
		if _, err := Synthesize(c); err == nil {
			t.Fatalf("invalid config %+v accepted", c)
		}
	}
}

func TestSynthesizeEnergyDistribution(t *testing.T) {
	d, _ := Synthesize(DefaultSynthConfig())
	vals := make([]float64, len(d.Energies))
	for i, e := range d.Energies {
		vals[i] = float64(e)
	}
	s := stats.Summarize(vals)
	// Mean near the configured 5 J (log-normal mu chosen for that mean).
	if math.Abs(s.Mean-5)/5 > 0.15 {
		t.Fatalf("mean energy = %v, want ~5", s.Mean)
	}
	// Heavy tail: the max should be several times the median.
	if s.Max < 4*stats.Median(vals) {
		t.Fatalf("energy distribution not heavy-tailed: max %v median %v", s.Max, stats.Median(vals))
	}
	for _, v := range vals {
		if v <= 0 {
			t.Fatal("non-positive synthesized energy")
		}
	}
}

func TestSynthesizeSpatialClumping(t *testing.T) {
	// The synthetic field must be clumped (unlike a uniform cube):
	// node density CV over XY bins should far exceed a uniform draw's.
	d, _ := Synthesize(DefaultSynthConfig())
	countsCV := func(pts []geom.Vec3, side float64) float64 {
		const bins = 8
		counts := make([]float64, bins*bins)
		for _, p := range pts {
			cx := int(float64(bins) * p.X / side)
			cy := int(float64(bins) * p.Y / side)
			if cx >= bins {
				cx = bins - 1
			}
			if cy >= bins {
				cy = bins - 1
			}
			counts[cy*bins+cx]++
		}
		return stats.CoefficientOfVariation(counts)
	}
	synthCV := countsCV(d.Positions, 1000)

	r := rng.New(1)
	uniform := geom.Cube(1000).SampleUniformN(r, len(d.Positions))
	uniformCV := countsCV(uniform, 1000)

	if synthCV < 2*uniformCV {
		t.Fatalf("synthetic field not clumped: CV %v vs uniform %v", synthCV, uniformCV)
	}
}

const wriSample = `country,country_long,name,capacity_mw,latitude,longitude,primary_fuel
CHN,China,Plant A,1000,31.2,121.5,Coal
CHN,China,Plant B,500,23.1,113.3,Gas
USA,United States,Plant C,800,40.7,-74.0,Coal
CHN,China,Bad Row,,31.0,120.0,Coal
CHN,China,Plant D,250,39.9,116.4,Hydro
`

func TestLoadWRICSV(t *testing.T) {
	r := rng.New(2)
	d, err := LoadWRICSV(strings.NewReader(wriSample), "CHN", 1000, 100, 5, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// 4 CHN rows, one with missing capacity → 3 nodes.
	if len(d.Positions) != 3 {
		t.Fatalf("loaded %d nodes, want 3", len(d.Positions))
	}
	// Mean energy maps to 5 J.
	var total float64
	for _, e := range d.Energies {
		total += float64(e)
	}
	if math.Abs(total/3-5) > 1e-9 {
		t.Fatalf("mean loaded energy = %v", total/3)
	}
	// Capacity ordering preserved: Plant A (1000 MW) > Plant B (500).
	if d.Energies[0] <= d.Energies[1] {
		t.Fatalf("energy ordering lost: %v vs %v", d.Energies[0], d.Energies[1])
	}
	// Heights within [0, 100).
	for _, p := range d.Positions {
		if p.Z < 0 || p.Z >= 100 {
			t.Fatalf("height out of range: %v", p.Z)
		}
	}
}

func TestLoadWRICSVErrors(t *testing.T) {
	r := rng.New(3)
	if _, err := LoadWRICSV(strings.NewReader("a,b\n1,2\n"), "CHN", 1000, 100, 5, r); err == nil {
		t.Fatal("missing columns accepted")
	}
	if _, err := LoadWRICSV(strings.NewReader(wriSample), "FRA", 1000, 100, 5, r); err == nil {
		t.Fatal("country with no rows accepted")
	}
	if _, err := LoadWRICSV(strings.NewReader(""), "CHN", 1000, 100, 5, r); err == nil {
		t.Fatal("empty file accepted")
	}
}

// TestLoadWRICSVSkipsUnusableRows feeds rows whose capacity, latitude
// or longitude parses to NaN, ±Inf or a place off the globe, or that
// stop short of the longitude column, between two good rows: each must
// be skipped like a blank field, not poison the mean capacity or the
// bounding box, nor index past the row.
func TestLoadWRICSVSkipsUnusableRows(t *testing.T) {
	const header = "country,name,capacity_mw,latitude,longitude\n"
	for _, bad := range []string{
		"CHN,b,NaN,31,111",
		"CHN,b,Inf,31,111",
		"CHN,b,+Inf,31,111",
		"CHN,b,-Inf,31,111",
		"CHN,b,100,NaN,111",
		"CHN,b,100,Inf,111",
		"CHN,b,100,31,NaN",
		"CHN,b,100,31,-Inf",
		"CHN,b,100,91,111",
		"CHN,b,100,31,1e300",
		"CHN,b,100,31",
	} {
		src := header + "CHN,a,100,30,110\n" + bad + "\nCHN,c,50,32,112\n"
		d, err := LoadWRICSV(strings.NewReader(src), "CHN", 1000, 100, 5, rng.New(4))
		if err != nil {
			t.Errorf("%s: %v", bad, err)
			continue
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%s: loaded dataset fails Validate: %v", bad, err)
		}
		if len(d.Energies) != 2 || d.Energies[0] != 2*d.Energies[1] {
			t.Errorf("%s: energies %v, want the two good rows at 2:1", bad, d.Energies)
		}
	}
	// Finite capacities whose sum overflows leave nothing usable.
	src := header + "CHN,a,1e308,30,110\nCHN,b,1e308,31,111\n"
	if _, err := LoadWRICSV(strings.NewReader(src), "CHN", 1000, 100, 5, rng.New(4)); err == nil {
		t.Error("capacities overflowing the mean accepted")
	}
}

func TestDatasetWriteCSV(t *testing.T) {
	c := DefaultSynthConfig()
	c.N = 4
	d, _ := Synthesize(c)
	var sb strings.Builder
	if err := d.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 5 || lines[0] != "x,y,z,energy_j" {
		t.Fatalf("csv = %q", sb.String())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	c := DefaultSynthConfig()
	c.N = 25
	orig, _ := Synthesize(c)
	var sb strings.Builder
	if err := orig.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Positions) != 25 {
		t.Fatalf("round trip lost nodes: %d", len(back.Positions))
	}
	for i := range back.Positions {
		if back.Positions[i].Dist(orig.Positions[i]) > 1e-9 {
			t.Fatalf("position %d drifted: %v vs %v", i, back.Positions[i], orig.Positions[i])
		}
		if math.Abs(float64(back.Energies[i]-orig.Energies[i])) > 1e-9 {
			t.Fatalf("energy %d drifted", i)
		}
		if !inBox(back.Box, back.Positions[i]) {
			t.Fatalf("node %d outside inferred box", i)
		}
	}
	if !inBox(back.Box, back.BS) {
		t.Fatal("BS outside inferred box")
	}
}

func TestLoadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"wrong header":    "a,b,c,d\n1,2,3,4\n",
		"no rows":         "x,y,z,energy_j\n",
		"bad field":       "x,y,z,energy_j\n1,2,zz,4\n",
		"zero energy":     "x,y,z,energy_j\n1,2,3,0\n",
		"negative energy": "x,y,z,energy_j\n1,2,3,-1\n",
		"NaN energy":      "x,y,z,energy_j\n1,2,3,NaN\n4,5,6,1\n",
		"+Inf energy":     "x,y,z,energy_j\n1,2,3,+Inf\n",
		"-Inf energy":     "x,y,z,energy_j\n1,2,3,-Inf\n",
		"Inf energy":      "x,y,z,energy_j\n4,5,6,1\n1,2,3,Inf\n",
		"short row":       "x,y,z,energy_j\n1,2,3\n",
	}
	for name, csv := range cases {
		if _, err := LoadCSV(strings.NewReader(csv)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestDatasetValidateErrors(t *testing.T) {
	d := &Dataset{}
	if err := d.Validate(); err == nil {
		t.Fatal("empty dataset validated")
	}
	for _, e := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		d, err := Synthesize(SynthConfig{N: 2, Side: 10, MaxHeight: 5, MeanEnergy: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		d.Energies[1] = energy.Joules(e)
		if err := d.Validate(); err == nil {
			t.Errorf("energy %v validated", e)
		}
	}
}

// FuzzLoadCSV feeds arbitrary text to the x,y,z,energy_j loader. It
// must never panic, and a dataset it accepts must come back from
// WriteCSV and a second LoadCSV with bit-identical positions and
// energies.
func FuzzLoadCSV(f *testing.F) {
	for _, s := range []string{
		"x,y,z,energy_j\n1,2,3,0.5\n",
		"x,y,z,energy_j\n1,2,3,NaN\n",
		"x,y,z,energy_j\n1,2,3,NaN\n4,5,6,1\n",
		"x,y,z,energy_j\n1,2,3,+Inf\n",
		"x,y,z,energy_j\n1,2,3,-Inf\n",
		"x,y,z,energy_j\nNaN,2,3,1\n",
		"a,b,c,d\n1,2,3,4\n",
		"x,y,z\n1,2,3\n",
		"x,y,z,energy_j\n1,2,3\n",
		"x,y,z,energy_j\n1,2,3,4,5\n",
		"x,y,z,energy_j\n-0,1e-300,7.5e300,4.9e-324\n 2 , 3 ,4,1\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := LoadCSV(strings.NewReader(src))
		if err != nil {
			return
		}
		var b strings.Builder
		if err := d.WriteCSV(&b); err != nil {
			t.Fatalf("accepted dataset does not write: %v", err)
		}
		back, err := LoadCSV(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("written dataset does not load: %v\n%s", err, b.String())
		}
		if len(back.Positions) != len(d.Positions) {
			t.Fatalf("round trip has %d rows, want %d", len(back.Positions), len(d.Positions))
		}
		bits := math.Float64bits
		for i, p := range d.Positions {
			q := back.Positions[i]
			if bits(p.X) != bits(q.X) || bits(p.Y) != bits(q.Y) || bits(p.Z) != bits(q.Z) {
				t.Fatalf("row %d position %v came back as %v", i, p, q)
			}
			if bits(float64(d.Energies[i])) != bits(float64(back.Energies[i])) {
				t.Fatalf("row %d energy %v came back as %v", i, d.Energies[i], back.Energies[i])
			}
		}
	})
}

// FuzzLoadWRICSV feeds arbitrary text to the WRI loader. It must never
// panic, and any dataset it returns must pass Validate.
func FuzzLoadWRICSV(f *testing.F) {
	f.Add(wriSample)
	f.Add("country,name,capacity_mw,latitude,longitude\nCHN,a,100,30,110\nCHN,b,NaN,31,111\nCHN,c,50,32,112\n")
	f.Fuzz(func(t *testing.T, src string) {
		d, err := LoadWRICSV(strings.NewReader(src), "CHN", 1000, 100, 5, rng.New(5))
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("accepted dataset fails Validate: %v", err)
		}
	})
}

// inBox reports whether p lies in b, faces included, give or take 1e-9.
func inBox(b geom.AABB, p geom.Vec3) bool {
	lo, hi := b.Min.Sub(p), p.Sub(b.Max)
	return math.Max(lo.X, math.Max(lo.Y, lo.Z)) <= 1e-9 && math.Max(hi.X, math.Max(hi.Y, hi.Z)) <= 1e-9
}
