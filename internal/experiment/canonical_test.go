package experiment

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"qlec/internal/dataset"
	"qlec/internal/energy"
	"qlec/internal/sim"
)

// paperConfigGoldenHash pins the byte-level canonical form of
// PaperConfig(). If this test fails you changed the serialization
// contract — field order, float formatting, or field set — which
// invalidates every content-addressed cache entry ever written by the
// job service. Do that only deliberately, and say so in the PR.
const paperConfigGoldenHash = "6ec39de88709f3df75218fc71889130f357381c932f15e5671058f97a5bb8813"

func TestHashGolden(t *testing.T) {
	got := PaperConfig().Hash()
	if got != paperConfigGoldenHash {
		b, _ := PaperConfig().CanonicalJSON()
		t.Fatalf("PaperConfig hash drifted:\n got  %s\n want %s\ncanonical JSON: %s",
			got, paperConfigGoldenHash, b)
	}
}

func TestHashDeterministic(t *testing.T) {
	a, b := PaperConfig(), PaperConfig()
	if a.Hash() != b.Hash() {
		t.Fatal("identical configs hash differently")
	}
	// Repeated hashing of the same value is stable.
	if a.Hash() != a.Hash() {
		t.Fatal("hash not idempotent")
	}
}

// TestHashIgnoresExecutionKnobs: hooks and scheduling knobs must not
// change the identity — results are independent of them by the
// determinism contract, so a cache hit across them is correct.
func TestHashIgnoresExecutionKnobs(t *testing.T) {
	base := PaperConfig()
	h := base.Hash()

	mod := base
	mod.Workers = 7
	mod.Progress = func(done, total int) {}
	if mod.Hash() != h {
		t.Fatal("execution knobs leaked into the hash")
	}
}

// canonicalExclusions lists every field of a mirrored struct that is
// deliberately absent from its canonical mirror, with the reason it
// cannot change results. Keys are "<struct>.<field>" as reported by
// TestCanonicalMirrorsComplete.
var canonicalExclusions = map[string]string{
	"Config.Workers":  "scheduling knob; runner.Map results are schedule-independent",
	"Config.Progress": "observation hook; no effect on results",
}

// TestCanonicalMirrorsComplete: every field of Config, sim.Config and
// energy.Model must have a same-named field in its canonical mirror,
// unless canonicalExclusions says why it may not. A field added to one
// of those structs without a mirror entry would let configurations that
// simulate differently share a cache key.
func TestCanonicalMirrorsComplete(t *testing.T) {
	used := map[string]bool{}
	check := func(name string, src, mirror reflect.Type) {
		for i := 0; i < src.NumField(); i++ {
			key := name + "." + src.Field(i).Name
			if _, ok := canonicalExclusions[key]; ok {
				used[key] = true
				continue
			}
			if _, ok := mirror.FieldByName(src.Field(i).Name); !ok {
				t.Errorf("%s has no field in %s: mirror it or add it to canonicalExclusions with a reason", key, mirror.Name())
			}
		}
	}
	check("Config", reflect.TypeOf(Config{}), reflect.TypeOf(canonicalConfig{}))
	check("sim.Config", reflect.TypeOf(sim.Config{}), reflect.TypeOf(canonicalSim{}))
	check("energy.Model", reflect.TypeOf(energy.Model{}), reflect.TypeOf(canonicalModel{}))
	for key := range canonicalExclusions {
		if !used[key] {
			t.Errorf("canonicalExclusions names %s, which is not a field any more", key)
		}
	}
}

// TestHashSensitivity: every result-determining field must perturb the
// hash.
func TestHashSensitivity(t *testing.T) {
	base := PaperConfig()
	h := base.Hash()
	mutations := map[string]func(*Config){
		"N":                 func(c *Config) { c.N++ },
		"Side":              func(c *Config) { c.Side += 1 },
		"InitialEnergy":     func(c *Config) { c.InitialEnergy += 1 },
		"Rounds":            func(c *Config) { c.Rounds++ },
		"K":                 func(c *Config) { c.K++ },
		"Lambdas":           func(c *Config) { c.Lambdas = []float64{8, 4, 2, 1, 0.5} },
		"LambdaOrder":       func(c *Config) { c.Lambdas = []float64{1, 2, 4, 8} },
		"Seeds":             func(c *Config) { c.Seeds = []uint64{1, 2, 3, 4, 5, 6} },
		"LifespanDeathLine": func(c *Config) { c.LifespanDeathLine += 0.5 },
		"LifespanMaxRounds": func(c *Config) { c.LifespanMaxRounds++ },
		"Sim.Seed":          func(c *Config) { c.Sim.Seed++ },
		"Sim.Compression":   func(c *Config) { c.Sim.Compression = 0.25 },
		"Model.Elec":        func(c *Config) { c.Model.Elec *= 2 },
		"FCMLevels":         func(c *Config) { c.FCMLevels++ },
		"AdvancedFraction":  func(c *Config) { c.AdvancedFraction = 0.1 },
		"AdvancedFactor":    func(c *Config) { c.AdvancedFactor = 1 },
		"Topology": func(c *Config) {
			c.Topology = &dataset.Dataset{}
		},
	}
	seen := map[string]string{"": h}
	for name, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		got := cfg.Hash()
		for prev, ph := range seen {
			if got == ph {
				t.Errorf("mutating %s collides with %q", name, prev)
			}
		}
		seen[name] = got
	}
}

// TestHashFloatFormatting: float values that are numerically distinct
// but print identically under naive %v-style truncation must stay
// distinct, and values that are numerically equal must agree however
// they were computed.
func TestHashFloatFormatting(t *testing.T) {
	a := PaperConfig()
	b := PaperConfig()
	tenth, fifth := 0.1, 0.2 // runtime values, so the sum rounds twice
	a.Side = tenth + fifth   // 0.30000000000000004
	b.Side = 0.3
	if a.Hash() == b.Hash() {
		t.Fatal("0.1+0.2 and 0.3 should hash differently (shortest round-trip formatting)")
	}
	c := PaperConfig()
	c.Side = 0.15 * 2 // exactly 0.3
	if c.Hash() != b.Hash() {
		t.Fatal("numerically equal floats hash differently")
	}
	// Integral floats format without a decimal point, consistently.
	d := PaperConfig()
	d.Side = 200.0
	if d.Hash() != PaperConfig().Hash() {
		t.Fatal("200.0 vs 200 formatting unstable")
	}
}

// TestHashFieldOrderStability: the canonical form's key order is the
// mirror struct's declaration order, not anything runtime-dependent.
func TestHashFieldOrderStability(t *testing.T) {
	b, err := PaperConfig().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{`"n":`, `"side":`, `"initialEnergy":`, `"rounds":`, `"k":`,
		`"lambdas":`, `"seeds":`, `"lifespanDeathLine":`, `"lifespanMaxRounds":`,
		`"sim":`, `"model":`, `"fcmLevels":`, `"topology":`,
		`"advancedFraction":`, `"advancedFactor":`}
	s := string(b)
	last := -1
	for _, k := range keys {
		i := strings.Index(s, k)
		if i < 0 {
			t.Fatalf("canonical JSON missing key %s: %s", k, s)
		}
		if i < last {
			t.Fatalf("canonical JSON key %s out of order: %s", k, s)
		}
		last = i
	}
}

// TestConfigJSONRoundTrip: Config must survive encoding/json untouched
// in every result-determining field — the service's submission path is
// JSON all the way down, and a lossy round-trip would make the daemon
// simulate a different experiment than the client described.
func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := PaperConfig()
	cfg.Sim.ShadowSigma = 0.4
	cfg.AdvancedFraction = 0.1
	cfg.AdvancedFactor = 1.5
	cfg.Workers = 3
	// Progress is json:"-": it must neither break marshaling nor
	// reappear after a round trip.
	cfg.Progress = func(done, total int) {}

	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Config
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Progress != nil {
		t.Fatal("Progress survived the round trip")
	}
	if back.Hash() != cfg.Hash() {
		t.Fatalf("round trip changed the hash:\n before %s\n after  %s", cfg.Hash(), back.Hash())
	}
	if back.Workers != 3 {
		t.Fatalf("Workers lost in round trip: %d", back.Workers)
	}
}
