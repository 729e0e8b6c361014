package qlec

import (
	"context"
	"errors"
	"testing"

	"qlec/internal/energy"
	"qlec/internal/experiment"
	"qlec/internal/protocol"
	"qlec/internal/sim"
)

// quickScenario shrinks the paper scenario for fast tests.
func quickScenario() Scenario {
	s := DefaultScenario()
	s.Config.Rounds = 3
	s.Config.Seeds = []uint64{1, 2}
	s.Config.Lambdas = []float64{6, 2}
	s.Config.LifespanDeathLine = 4.96
	s.Config.LifespanMaxRounds = 40
	return s
}

func TestRunQuickstart(t *testing.T) {
	res, err := RunContext(context.Background(), quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Protocol != "QLEC" {
		t.Fatalf("protocol %q", res.Protocol)
	}
	if res.PDR() <= 0 || res.TotalEnergy <= 0 {
		t.Fatalf("degenerate result: PDR %v energy %v", res.PDR(), res.TotalEnergy)
	}
}

func TestRunEveryPublicProtocol(t *testing.T) {
	for _, d := range protocol.All() {
		p := Protocol(d.ID)
		s := quickScenario()
		s.Protocol = p
		res, err := RunContext(context.Background(), s)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Generated == 0 {
			t.Fatalf("%s: no traffic", p)
		}
	}
}

func TestCompare(t *testing.T) {
	s := quickScenario()
	rows, err := CompareContext(context.Background(), s, Protocols())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.PDR.N != 2 {
			t.Fatalf("%s: %d replicates", r.Protocol, r.PDR.N)
		}
		if r.Lifespan.Mean <= 0 {
			t.Fatalf("%s: lifespan %v", r.Protocol, r.Lifespan.Mean)
		}
	}
}

func TestCompareNoProtocols(t *testing.T) {
	if _, err := CompareContext(context.Background(), quickScenario(), nil); err == nil {
		t.Fatal("empty protocol list accepted")
	}
}

func TestReproduceFigure3Quick(t *testing.T) {
	s := quickScenario()
	f, err := ReproduceFigure3Context(context.Background(), s.Config, []Protocol{QLEC, KMeans})
	if err != nil {
		t.Fatal(err)
	}
	for name, ch := range map[string]interface{ Validate() error }{
		"pdr": f.PDR, "energy": f.Energy, "life": f.Life, "latency": f.Latency,
	} {
		if err := ch.Validate(); err != nil {
			t.Fatalf("%s chart: %v", name, err)
		}
	}
	if len(f.Sweep) != 2 {
		t.Fatalf("sweep has %d protocols", len(f.Sweep))
	}
}

func TestReproduceFigure4Quick(t *testing.T) {
	cfg := experiment.PaperFig4Config()
	cfg.Synth.N = 250
	cfg.K = 16
	cfg.Rounds = 2
	res, err := ReproduceFigure4Context(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 16 || len(res.Field.Points) != 250 {
		t.Fatalf("unexpected figure-4 result shape: k=%d n=%d", res.K, len(res.Field.Points))
	}
}

func TestNewTopologyAndRun(t *testing.T) {
	// A small water-column style deployment.
	var pos []Vec3
	var en []float64
	for i := 0; i < 60; i++ {
		pos = append(pos, Vec3{
			X: float64(i%10) * 10,
			Y: float64((i/10)%6) * 10,
			Z: float64(i%4) * 25,
		})
		en = append(en, 5)
	}
	topo, err := NewTopology(pos, en, Vec3{X: 45, Y: 25, Z: 110})
	if err != nil {
		t.Fatal(err)
	}
	if b, bs := topo.Box, topo.BS; bs.X < b.Min.X || bs.X > b.Max.X || bs.Y < b.Min.Y || bs.Y > b.Max.Y || bs.Z < b.Min.Z || bs.Z > b.Max.Z {
		t.Fatalf("box %v does not contain BS %v", b, bs)
	}
	s := quickScenario()
	s.Config.Topology = topo
	s.Config.K = 4
	res, err := RunContext(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated == 0 || res.Delivered == 0 {
		t.Fatalf("custom topology run degenerate: gen %d del %d", res.Generated, res.Delivered)
	}
	if len(res.ConsumptionRates) != 60 {
		t.Fatalf("consumption rates for %d nodes", len(res.ConsumptionRates))
	}
}

func TestNewTopologyValidation(t *testing.T) {
	if _, err := NewTopology(nil, nil, Vec3{}); err == nil {
		t.Fatal("empty topology accepted")
	}
	if _, err := NewTopology([]Vec3{{}}, []float64{1, 2}, Vec3{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := NewTopology([]Vec3{{}}, []float64{0}, Vec3{}); err == nil {
		t.Fatal("zero energy accepted")
	}
}

func TestOptimalClusterCount(t *testing.T) {
	// Theorem 1 with the paper's parameters and d_toBS = 134 m rounds
	// to the paper's k_opt ≈ 5 (see DESIGN.md §6.2).
	k := energy.DefaultModel().OptimalClusterCount(100, 200, 134)
	if k < 4.5 || k >= 5.5 {
		t.Fatalf("k_opt = %v", k)
	}
}

func TestRunContextCancellation(t *testing.T) {
	s := quickScenario()
	s.Config.Rounds = 100
	ctx, cancel := context.WithCancel(context.Background())
	rounds := 0
	s.Hooks.Observer = func(snap sim.RoundSnapshot) {
		rounds++
		if snap.Round == 1 {
			cancel()
		}
	}
	res, err := RunContext(ctx, s)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if res == nil || res.Rounds != 2 {
		t.Fatalf("partial result = %+v", res)
	}
	if rounds != 2 {
		t.Fatalf("observer saw %d rounds", rounds)
	}
}

func TestCompareContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompareContext(ctx, quickScenario(), Protocols()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}
