package tdeec

import (
	"math"
	"reflect"
	"testing"

	"qlec/internal/cluster"
	"qlec/internal/network"
	"qlec/internal/rng"
)

func threeTierNet(t *testing.T, seed uint64) *network.Network {
	t.Helper()
	w, err := network.Deploy(network.Deployment{
		N: 100, Side: 200, InitialEnergy: 5,
		AdvancedFraction: 0.2, AdvancedFactor: 1,
		SuperFraction: 0.1, SuperFactor: 2,
	}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// Tier weights must mirror the provisioned initial energies: w_i =
// E0_i/Ē0, so the three tiers map to exactly three weight levels whose
// population-weighted mean is 1.
func TestTierWeightsMatchProvisioning(t *testing.T) {
	w := threeTierNet(t, 11)
	p, err := New(w, Config{K: 5, TotalRounds: 100, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	weights := p.weights
	meanInit := float64(w.InitialTotalEnergy()) / float64(w.N())
	var sum float64
	levels := map[float64]int{}
	for i, n := range w.Nodes {
		want := float64(n.Battery.Initial()) / meanInit
		if math.Abs(weights[i]-want) > 1e-12 {
			t.Fatalf("node %d weight %v, want %v", i, weights[i], want)
		}
		sum += weights[i]
		levels[weights[i]]++
	}
	if math.Abs(sum/float64(w.N())-1) > 1e-9 {
		t.Fatalf("mean weight %v, want 1", sum/float64(w.N()))
	}
	if len(levels) != 3 {
		t.Fatalf("expected 3 weight levels, got %d", len(levels))
	}
}

// The election must field exactly K heads while at least K nodes are
// alive — the lottery plus the E-DEECP richest-first fallback.
func TestHeadCountPinnedAtK(t *testing.T) {
	w := threeTierNet(t, 12)
	const k = 6
	p, err := New(w, Config{K: k, TotalRounds: 200, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		heads := p.StartRound(round)
		if len(heads) != k {
			t.Fatalf("round %d: %d heads, want %d", round, len(heads), k)
		}
		p.EndRound(round)
	}
}

func TestDeterministicAcrossInstances(t *testing.T) {
	run := func() [][]int {
		w := threeTierNet(t, 13)
		p, err := New(w, Config{K: 5, TotalRounds: 100, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		var rounds [][]int
		for r := 0; r < 20; r++ {
			rounds = append(rounds, append([]int(nil), p.StartRound(r)...))
			p.EndRound(r)
		}
		return rounds
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different head sequences")
	}
}

func TestConformance(t *testing.T) {
	w := threeTierNet(t, 14)
	// Drain some nodes so aliveness filtering is exercised.
	for i := 0; i < 25; i++ {
		w.Nodes[i].Battery.Draw(w.Nodes[i].Battery.Initial())
	}
	p, err := New(w, Config{K: 5, TotalRounds: 100, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	report := cluster.CheckConformance(w, p, 40, 0)
	if !report.Ok() {
		for _, v := range report.Violations {
			t.Error(v)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	w := threeTierNet(t, 15)
	bad := []Config{
		{K: 0, TotalRounds: 10},
		{K: 5, TotalRounds: 0},
		{K: 5, TotalRounds: 10, DeathLine: -1},
		{K: 5, TotalRounds: 10, ThresholdFrac: 1},
		{K: 101, TotalRounds: 10},
	}
	for i, cfg := range bad {
		if _, err := New(w, cfg); err == nil {
			t.Errorf("case %d: New accepted %+v", i, cfg)
		}
	}
}
