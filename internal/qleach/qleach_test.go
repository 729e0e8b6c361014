package qleach

import (
	"reflect"
	"testing"

	"qlec/internal/cluster"
	"qlec/internal/network"
	"qlec/internal/rng"
)

func uniformNet(t *testing.T, n int, seed uint64) *network.Network {
	t.Helper()
	w, err := network.Deploy(network.Deployment{
		N: n, Side: 200, InitialEnergy: 5,
	}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// The sectored election's defining property: every sector fields exactly
// its quota of heads while it has enough alive nodes, so heads can never
// clump into one corner of the field.
func TestPerSectorHeadCountBounds(t *testing.T) {
	w := uniformNet(t, 80, 21)
	const k = 8
	p, err := New(w, Config{K: k, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if p.cfg.Sectors != DefaultSectors {
		t.Fatalf("sectors = %d, want %d", p.cfg.Sectors, DefaultSectors)
	}
	for round := 0; round < 60; round++ {
		heads := p.StartRound(round)
		if len(heads) != k {
			t.Fatalf("round %d: %d heads, want %d", round, len(heads), k)
		}
		perSector := make([]int, p.cfg.Sectors)
		for _, h := range heads {
			perSector[p.sector[h]]++
		}
		for s, got := range perSector {
			if want := p.quota[s]; got != want {
				t.Fatalf("round %d: sector %d fielded %d heads, want %d (all %v)",
					round, s, got, want, perSector)
			}
		}
		p.EndRound(round)
	}
}

// Uneven quota split: K not divisible by S gives the first K mod S
// sectors one extra head, totals still K.
func TestQuotaSplit(t *testing.T) {
	w := uniformNet(t, 80, 22)
	p, err := New(w, Config{K: 7, Sectors: 4, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 2, 2, 1}
	var got []int
	for s := 0; s < p.cfg.Sectors; s++ {
		got = append(got, p.quota[s])
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("quotas = %v, want %v", got, want)
	}
}

// Fewer heads than sectors: the sector count collapses to K so no
// sector is permanently headless.
func TestSectorsClampedToK(t *testing.T) {
	w := uniformNet(t, 40, 23)
	p, err := New(w, Config{K: 2, Sectors: 4, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if p.cfg.Sectors != 2 {
		t.Fatalf("sectors = %d, want 2", p.cfg.Sectors)
	}
}

func TestDeterministicAcrossInstances(t *testing.T) {
	run := func() [][]int {
		w := uniformNet(t, 60, 24)
		p, err := New(w, Config{K: 6, Seed: 24})
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
	w := uniformNet(t, 60, 25)
	for i := 0; i < 20; i++ {
		w.Nodes[i].Battery.Draw(5)
	}
	p, err := New(w, Config{K: 6, Seed: 25})
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
	w := uniformNet(t, 20, 26)
	bad := []Config{
		{K: 0},
		{K: 5, Sectors: -1},
		{K: 5, DeathLine: -1},
		{K: 21},
	}
	for i, cfg := range bad {
		if _, err := New(w, cfg); err == nil {
			t.Errorf("case %d: New accepted %+v", i, cfg)
		}
	}
}
