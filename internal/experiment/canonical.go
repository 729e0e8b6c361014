package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"qlec/internal/dataset"
	"qlec/internal/sim"
)

// This file defines the canonical serialization contract behind
// Config.Hash — the content-addressed cache key of the job service
// (internal/service). Two Config values that describe the same
// simulation must produce byte-identical canonical JSON, and any change
// that can alter simulation output must change it.
//
// The contract is frozen by the explicit mirror structs below, NOT by
// Config's own field order: reordering Config's fields, or adding
// fields to Config without updating the mirrors, cannot silently change
// existing hashes (canonical_test.go pins a golden hash for
// PaperConfig). Floats serialize through encoding/json's shortest
// round-trip formatting (strconv 'g'), which is deterministic across
// platforms.
//
// Deliberately excluded: Progress (observation hook; no effect on
// results) and Workers (scheduling knob; results are schedule-
// independent by runner.Map's determinism contract). A run's other
// hooks are not Config fields at all (see Hooks).
// TestCanonicalMirrorsComplete holds this list and fails on any other
// field of Config, sim.Config or energy.Model that lacks a mirror.

// canonicalSim mirrors sim.Config field-for-field in frozen order.
type canonicalSim struct {
	Bits                  int     `json:"bits"`
	HelloBits             int     `json:"helloBits"`
	MeanInterArrival      float64 `json:"meanInterArrival"`
	RoundDuration         float64 `json:"roundDuration"`
	QueueCapacity         int     `json:"queueCapacity"`
	ServiceTime           float64 `json:"serviceTime"`
	BSQueueCapacity       int     `json:"bsQueueCapacity"`
	BSServiceTime         float64 `json:"bsServiceTime"`
	MaxRetries            int     `json:"maxRetries"`
	BatchRetries          int     `json:"batchRetries"`
	Compression           float64 `json:"compression"`
	DeathLine             float64 `json:"deathLine"`
	StopOnDeath           bool    `json:"stopOnDeath"`
	BitRate               float64 `json:"bitRate"`
	LinkPMax              float64 `json:"linkPMax"`
	LinkRef               float64 `json:"linkRef"`
	MobilitySpeedMin      float64 `json:"mobilitySpeedMin"`
	MobilitySpeedMax      float64 `json:"mobilitySpeedMax"`
	MobilityPause         float64 `json:"mobilityPause"`
	ContentionGamma       float64 `json:"contentionGamma"`
	ShadowSigma           float64 `json:"shadowSigma"`
	RetryBackoff          float64 `json:"retryBackoff"`
	DisableControlTraffic bool    `json:"disableControlTraffic"`
	Seed                  uint64  `json:"seed"`
}

func canonicalizeSim(c sim.Config) canonicalSim {
	return canonicalSim{
		Bits:                  c.Bits,
		HelloBits:             c.HelloBits,
		MeanInterArrival:      c.MeanInterArrival,
		RoundDuration:         c.RoundDuration,
		QueueCapacity:         c.QueueCapacity,
		ServiceTime:           c.ServiceTime,
		BSQueueCapacity:       c.BSQueueCapacity,
		BSServiceTime:         c.BSServiceTime,
		MaxRetries:            c.MaxRetries,
		BatchRetries:          c.BatchRetries,
		Compression:           c.Compression,
		DeathLine:             float64(c.DeathLine),
		StopOnDeath:           c.StopOnDeath,
		BitRate:               c.BitRate,
		LinkPMax:              c.LinkPMax,
		LinkRef:               c.LinkRef,
		MobilitySpeedMin:      c.MobilitySpeedMin,
		MobilitySpeedMax:      c.MobilitySpeedMax,
		MobilityPause:         c.MobilityPause,
		ContentionGamma:       c.ContentionGamma,
		ShadowSigma:           c.ShadowSigma,
		RetryBackoff:          c.RetryBackoff,
		DisableControlTraffic: c.DisableControlTraffic,
		Seed:                  c.Seed,
	}
}

// canonicalModel mirrors energy.Model.
type canonicalModel struct {
	Elec        float64 `json:"elec"`
	FreeSpace   float64 `json:"freeSpace"`
	MultiPath   float64 `json:"multiPath"`
	Aggregation float64 `json:"aggregation"`
}

// canonicalTopology mirrors dataset.Dataset with positions flattened to
// coordinate triples.
type canonicalTopology struct {
	Positions [][3]float64 `json:"positions"`
	Energies  []float64    `json:"energies"`
	BoxMin    [3]float64   `json:"boxMin"`
	BoxMax    [3]float64   `json:"boxMax"`
	BS        [3]float64   `json:"bs"`
}

func canonicalizeTopology(d *dataset.Dataset) *canonicalTopology {
	if d == nil {
		return nil
	}
	t := &canonicalTopology{
		Positions: make([][3]float64, len(d.Positions)),
		Energies:  make([]float64, len(d.Energies)),
		BoxMin:    [3]float64{d.Box.Min.X, d.Box.Min.Y, d.Box.Min.Z},
		BoxMax:    [3]float64{d.Box.Max.X, d.Box.Max.Y, d.Box.Max.Z},
		BS:        [3]float64{d.BS.X, d.BS.Y, d.BS.Z},
	}
	for i, p := range d.Positions {
		t.Positions[i] = [3]float64{p.X, p.Y, p.Z}
	}
	for i, e := range d.Energies {
		t.Energies[i] = float64(e)
	}
	return t
}

// canonicalConfig mirrors the result-determining fields of Config.
type canonicalConfig struct {
	N                 int                `json:"n"`
	Side              float64            `json:"side"`
	InitialEnergy     float64            `json:"initialEnergy"`
	Rounds            int                `json:"rounds"`
	K                 int                `json:"k"`
	Lambdas           []float64          `json:"lambdas"`
	Seeds             []uint64           `json:"seeds"`
	LifespanDeathLine float64            `json:"lifespanDeathLine"`
	LifespanMaxRounds int                `json:"lifespanMaxRounds"`
	Sim               canonicalSim       `json:"sim"`
	Model             canonicalModel     `json:"model"`
	FCMLevels         int                `json:"fcmLevels"`
	Topology          *canonicalTopology `json:"topology"`
	AdvancedFraction  float64            `json:"advancedFraction"`
	AdvancedFactor    float64            `json:"advancedFactor"`
	// Appended with omitempty so configurations predating the three-tier
	// deployment and protocol tunables keep their existing hashes (the
	// golden-hash test pins PaperConfig's digest). encoding/json emits
	// map keys sorted, so ProtocolParams serializes deterministically.
	SuperFraction  float64            `json:"superFraction,omitempty"`
	SuperFactor    float64            `json:"superFactor,omitempty"`
	ProtocolParams map[string]float64 `json:"protocolParams,omitempty"`
}

// CanonicalJSON serializes the result-determining fields of the
// configuration in a frozen field order with deterministic float
// formatting. It fails only on non-finite floats (NaN/±Inf), which no
// valid configuration contains.
func (c Config) CanonicalJSON() ([]byte, error) {
	cc := canonicalConfig{
		N:                 c.N,
		Side:              c.Side,
		InitialEnergy:     float64(c.InitialEnergy),
		Rounds:            c.Rounds,
		K:                 c.K,
		Lambdas:           c.Lambdas,
		Seeds:             c.Seeds,
		LifespanDeathLine: float64(c.LifespanDeathLine),
		LifespanMaxRounds: c.LifespanMaxRounds,
		Sim:               canonicalizeSim(c.Sim),
		Model: canonicalModel{
			Elec:        float64(c.Model.Elec),
			FreeSpace:   float64(c.Model.FreeSpace),
			MultiPath:   float64(c.Model.MultiPath),
			Aggregation: float64(c.Model.Aggregation),
		},
		FCMLevels:        c.FCMLevels,
		Topology:         canonicalizeTopology(c.Topology),
		AdvancedFraction: c.AdvancedFraction,
		AdvancedFactor:   c.AdvancedFactor,
		SuperFraction:    c.SuperFraction,
		SuperFactor:      c.SuperFactor,
		ProtocolParams:   c.ProtocolParams,
	}
	if len(cc.ProtocolParams) == 0 {
		// Treat an allocated-but-empty map like nil so both spell the
		// same configuration.
		cc.ProtocolParams = nil
	}
	if cc.Lambdas == nil {
		cc.Lambdas = []float64{}
	}
	if cc.Seeds == nil {
		cc.Seeds = []uint64{}
	}
	b, err := json.Marshal(cc)
	if err != nil {
		return nil, fmt.Errorf("experiment: canonicalize config: %w", err)
	}
	return b, nil
}

// Hash returns the SHA-256 hex digest of CanonicalJSON — the stable
// identity of the configuration. The job service does not key on it:
// it addresses results by service.Request.Hash, which embeds
// CanonicalJSON. Hash exists so that TestHashGolden can pin
// CanonicalJSON's bytes. It panics on a configuration containing a
// non-finite float (NaN/±Inf), which no meaningful configuration does.
func (c Config) Hash() string {
	b, err := c.CanonicalJSON()
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
