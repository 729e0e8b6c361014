// Package dataset supplies the "large-scale dataset" substrate for the
// paper's §5.3 experiment.
//
// The paper uses the WRI Global Power Plant Database (China subset: 2896
// plants), mapping plant capacity to node energy and assigning random
// heights to lift the 2-D plant map into 3-D. That file is not shipped
// here (it is an external download), so this package provides two paths:
//
//  1. Synthesize: a deterministic generator reproducing the two
//     properties of the real data that exercise QLEC — spatial clumping
//     (plants concentrate around population/industrial centers, unlike
//     the uniform cube of §5.1) and a heavy-tailed capacity→energy
//     distribution (log-normal body with a few giant plants). Cluster
//     centers, weights and spreads are fixed constants loosely following
//     the geography of Chinese industrial regions, scaled into simulator
//     coordinates.
//  2. LoadWRICSV: a loader for the genuine database CSV (schema:
//     country,name,capacity_mw,latitude,longitude,...) so the real file
//     can be dropped in without code changes.
//
// Either path yields the same Dataset type consumed by the experiment
// harness.
package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"qlec/internal/energy"
	"qlec/internal/geom"
	"qlec/internal/rng"
)

// Dataset is a set of node positions with per-node initial energies,
// bounded by Box, plus a suggested base-station position.
type Dataset struct {
	Positions []geom.Vec3
	Energies  []energy.Joules
	Box       geom.AABB
	BS        geom.Vec3
}

// Validate checks structural consistency.
func (d *Dataset) Validate() error {
	if len(d.Positions) == 0 {
		return fmt.Errorf("dataset: empty")
	}
	if len(d.Positions) != len(d.Energies) {
		return fmt.Errorf("dataset: %d positions but %d energies", len(d.Positions), len(d.Energies))
	}
	if err := d.Box.Validate(); err != nil {
		return err
	}
	for i, e := range d.Energies {
		if !energy.ValidCharge(e) {
			return fmt.Errorf("dataset: node %d has energy %v, want finite and positive", i, e)
		}
		if !d.Positions[i].IsFinite() {
			return fmt.Errorf("dataset: node %d has non-finite position", i)
		}
	}
	return nil
}

// SynthConfig parameterizes the synthetic generator.
type SynthConfig struct {
	// N is the node count; the paper's China subset has 2896.
	N int
	// Side is the simulator-space side length of the square footprint,
	// in meters. The default maps the ~5000 km China extent onto 1000 m
	// of simulator space (radio constants are per meter, so what matters
	// is the *relative* geometry, not geographic scale).
	Side float64
	// MaxHeight bounds the random heights ("we randomly assign a height
	// value to each node to convert the 2-dimensional network ... into a
	// 3-dimensional one", §5.3).
	MaxHeight float64
	// MeanEnergy sets the average node energy in Joules; per-node values
	// follow a log-normal around it (σ=0.9), mimicking the capacity
	// spread of real plants (a few GW giants, many small units).
	MeanEnergy energy.Joules
	// Seed drives the deterministic generator.
	Seed uint64
}

// DefaultSynthConfig mirrors the paper's §5.3 setup.
func DefaultSynthConfig() SynthConfig {
	return SynthConfig{
		N:          2896,
		Side:       1000,
		MaxHeight:  100,
		MeanEnergy: 5,
		Seed:       2019, // publication year; any fixed value works
	}
}

// Validate checks generator parameters.
func (c SynthConfig) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("dataset: N must be positive, got %d", c.N)
	}
	if !(c.Side > 0) {
		return fmt.Errorf("dataset: Side must be positive, got %v", c.Side)
	}
	if !(c.MaxHeight > 0) {
		return fmt.Errorf("dataset: MaxHeight must be positive, got %v", c.MaxHeight)
	}
	if c.MeanEnergy <= 0 {
		return fmt.Errorf("dataset: MeanEnergy must be positive, got %v", c.MeanEnergy)
	}
	return nil
}

// hub is one synthetic population/industrial center in unit-square
// coordinates with a relative weight and Gaussian spread.
type hub struct {
	x, y   float64
	weight float64
	spread float64
}

// hubs loosely follows the east-heavy geography of Chinese industry:
// dense coastal corridors, a few inland centers, sparse west.
var hubs = []hub{
	{0.82, 0.55, 0.18, 0.05}, // Yangtze delta
	{0.78, 0.35, 0.14, 0.05}, // Pearl river delta
	{0.75, 0.72, 0.13, 0.06}, // Bohai rim
	{0.60, 0.52, 0.10, 0.07}, // central plains
	{0.55, 0.38, 0.08, 0.06}, // middle Yangtze
	{0.45, 0.60, 0.07, 0.08}, // Loess plateau energy base
	{0.30, 0.45, 0.05, 0.09}, // Sichuan basin
	{0.20, 0.70, 0.03, 0.10}, // northwest
	{0.15, 0.30, 0.02, 0.10}, // southwest
}

// background is the probability mass spread uniformly over the square.
const background = 0.20

// Synthesize generates a deterministic synthetic dataset.
func Synthesize(c SynthConfig) (*Dataset, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	r := rng.NewNamed(c.Seed, "dataset/synth")
	box := geom.AABB{
		Min: geom.Vec3{},
		Max: geom.Vec3{X: c.Side, Y: c.Side, Z: c.MaxHeight},
	}
	// Normalize hub weights to 1-background.
	totalW := 0.0
	for _, h := range hubs {
		totalW += h.weight
	}
	d := &Dataset{Box: box}
	d.Positions = make([]geom.Vec3, c.N)
	d.Energies = make([]energy.Joules, c.N)
	// Log-normal with median exp(mu); choose mu so the mean matches
	// MeanEnergy: mean = exp(mu + σ²/2) ⇒ mu = ln(mean) − σ²/2.
	const sigma = 0.9
	mu := math.Log(float64(c.MeanEnergy)) - sigma*sigma/2

	for i := 0; i < c.N; i++ {
		var x, y float64
		if r.Float64() < background {
			x, y = r.Float64(), r.Float64()
		} else {
			// Pick a hub proportionally to weight.
			pick := r.Float64() * totalW
			var h hub
			for _, cand := range hubs {
				if pick < cand.weight {
					h = cand
					break
				}
				pick -= cand.weight
			}
			if h.weight == 0 { // float edge: fall back to heaviest hub
				h = hubs[0]
			}
			for {
				x = h.x + h.spread*r.NormFloat64()
				y = h.y + h.spread*r.NormFloat64()
				if x >= 0 && x < 1 && y >= 0 && y < 1 {
					break
				}
			}
		}
		d.Positions[i] = geom.Vec3{
			X: x * c.Side,
			Y: y * c.Side,
			Z: r.Float64() * c.MaxHeight,
		}
		e := energy.Joules(r.LogNormal(mu, sigma))
		// Clamp the extreme tail so no single node dwarfs the network by
		// orders of magnitude (the real DB similarly truncates at the
		// largest plant).
		if e > 50*c.MeanEnergy {
			e = 50 * c.MeanEnergy
		}
		if e < c.MeanEnergy/100 {
			e = c.MeanEnergy / 100
		}
		d.Energies[i] = e
	}
	// BS at the weighted center of mass of the hubs: the paper's sink
	// serves the whole country-scale network.
	var bx, by float64
	for _, h := range hubs {
		bx += h.x * h.weight
		by += h.y * h.weight
	}
	d.BS = geom.Vec3{X: bx / totalW * c.Side, Y: by / totalW * c.Side, Z: c.MaxHeight / 2}
	return d, nil
}

// LoadWRICSV reads a Global Power Plant Database CSV (v1.x schema) and
// converts rows for the given country code into a Dataset. Capacity in MW
// maps linearly onto energy so that the mean is meanEnergy; latitude and
// longitude map into a Side×Side square; heights are assigned uniformly
// in [0, maxHeight) from the provided stream, as the paper does. Rows
// whose capacity is not finite and positive, or whose latitude or
// longitude is not a coordinate (NaN, ±Inf, beyond ±90 or ±180), are
// skipped; a returned Dataset always passes Validate.
func LoadWRICSV(src io.Reader, country string, side, maxHeight float64, meanEnergy energy.Joules, r *rng.Stream) (*Dataset, error) {
	rd := csv.NewReader(src)
	rd.FieldsPerRecord = -1
	header, err := rd.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading WRI header: %w", err)
	}
	col := map[string]int{}
	for i, name := range header {
		col[strings.TrimSpace(strings.ToLower(name))] = i
	}
	width := 0 // fields a row needs to reach every column read below
	for _, need := range []string{"country", "capacity_mw", "latitude", "longitude"} {
		i, ok := col[need]
		if !ok {
			return nil, fmt.Errorf("dataset: WRI CSV missing column %q", need)
		}
		width = max(width, i+1)
	}
	var lats, lons, caps []float64
	for {
		rec, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading WRI row: %w", err)
		}
		if len(rec) < width || !strings.EqualFold(strings.TrimSpace(rec[col["country"]]), country) {
			continue
		}
		capMW, err1 := strconv.ParseFloat(strings.TrimSpace(rec[col["capacity_mw"]]), 64)
		lat, err2 := strconv.ParseFloat(strings.TrimSpace(rec[col["latitude"]]), 64)
		lon, err3 := strconv.ParseFloat(strings.TrimSpace(rec[col["longitude"]]), 64)
		if err1 != nil || err2 != nil || err3 != nil || !energy.ValidCharge(energy.Joules(capMW)) ||
			!(math.Abs(lat) <= 90) || !(math.Abs(lon) <= 180) {
			continue // the real file has gaps; skip unusable rows
		}
		lats, lons, caps = append(lats, lat), append(lons, lon), append(caps, capMW)
	}
	if len(caps) == 0 {
		return nil, fmt.Errorf("dataset: no usable rows for country %q", country)
	}
	latLo, latHi := minMax(lats)
	lonLo, lonHi := minMax(lons)
	if latHi == latLo {
		latHi = latLo + 1
	}
	if lonHi == lonLo {
		lonHi = lonLo + 1
	}
	meanCap := 0.0
	for _, c := range caps {
		meanCap += c
	}
	meanCap /= float64(len(caps))

	d := &Dataset{
		Box: geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: side, Y: side, Z: maxHeight}},
	}
	for i := range caps {
		d.Positions = append(d.Positions, geom.Vec3{
			X: (lons[i] - lonLo) / (lonHi - lonLo) * side,
			Y: (lats[i] - latLo) / (latHi - latLo) * side,
			Z: r.Float64() * maxHeight,
		})
		d.Energies = append(d.Energies, energy.Joules(caps[i]/meanCap)*meanEnergy)
	}
	d.BS = geom.Vec3{X: side / 2, Y: side / 2, Z: maxHeight / 2}
	// Usable rows can still give unusable nodes: capacities whose sum
	// overflows, or one so small beside the mean that its energy is 0.
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("dataset: WRI rows for %q: %w", country, err)
	}
	return d, nil
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return
}

// LoadCSV reads the x,y,z,energy_j interchange format produced by
// WriteCSV back into a Dataset (round-trip with qlecfig -fig dataset,
// and the format cmd/qlecsim accepts for custom topologies). The bounding box is
// grown to fit the nodes with a 1-unit pad; the base station defaults to
// the box center.
func LoadCSV(src io.Reader) (*Dataset, error) {
	rd := csv.NewReader(src)
	rd.FieldsPerRecord = 4
	header, err := rd.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	if strings.TrimSpace(strings.ToLower(header[0])) != "x" {
		return nil, fmt.Errorf("dataset: unexpected CSV header %v (want x,y,z,energy_j)", header)
	}
	d := &Dataset{}
	lo := geom.Vec3{X: math.Inf(1), Y: math.Inf(1), Z: math.Inf(1)}
	hi := geom.Vec3{X: math.Inf(-1), Y: math.Inf(-1), Z: math.Inf(-1)}
	for row := 2; ; row++ {
		rec, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV row %d: %w", row, err)
		}
		vals := make([]float64, 4)
		for i, f := range rec {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: CSV row %d field %d: %w", row, i+1, err)
			}
			vals[i] = v
		}
		p := geom.Vec3{X: vals[0], Y: vals[1], Z: vals[2]}
		if !p.IsFinite() {
			return nil, fmt.Errorf("dataset: CSV row %d has non-finite position", row)
		}
		if !energy.ValidCharge(energy.Joules(vals[3])) {
			return nil, fmt.Errorf("dataset: CSV row %d has energy %v, want finite and positive", row, vals[3])
		}
		d.Positions = append(d.Positions, p)
		d.Energies = append(d.Energies, energy.Joules(vals[3]))
		lo = geom.Vec3{X: math.Min(lo.X, p.X), Y: math.Min(lo.Y, p.Y), Z: math.Min(lo.Z, p.Z)}
		hi = geom.Vec3{X: math.Max(hi.X, p.X), Y: math.Max(hi.Y, p.Y), Z: math.Max(hi.Z, p.Z)}
	}
	if len(d.Positions) == 0 {
		return nil, fmt.Errorf("dataset: CSV contains no rows")
	}
	const pad = 1.0
	d.Box = geom.AABB{
		Min: lo.Sub(geom.Vec3{X: pad, Y: pad, Z: pad}),
		Max: hi.Add(geom.Vec3{X: pad, Y: pad, Z: pad}),
	}
	d.BS = d.Box.Center()
	return d, d.Validate()
}

// WriteCSV emits the dataset as x,y,z,energy rows (with header), the
// interchange format qlecfig -fig dataset -out writes.
func (d *Dataset) WriteCSV(w io.Writer) error {
	if err := d.Validate(); err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("x,y,z,energy_j\n")
	for i, p := range d.Positions {
		fmt.Fprintf(&b, "%g,%g,%g,%g\n", p.X, p.Y, p.Z, float64(d.Energies[i]))
	}
	_, err := io.WriteString(w, b.String())
	return err
}
