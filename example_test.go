package qlec_test

// Runnable documentation examples for the public facade. The simulator
// is bit-deterministic per (seed, config), so the printed numbers double
// as a regression canary: if any component's random-draw order changes,
// these examples fail and the change must be acknowledged deliberately.

import (
	"context"
	"fmt"
	"log"

	"qlec"
)

// ExampleRunContext shows the minimal happy path: the paper's §5.1
// scenario, shrunk to 3 rounds for a fast, deterministic example.
func ExampleRunContext() {
	s := qlec.DefaultScenario()
	s.Config.Rounds = 3
	res, err := qlec.RunContext(context.Background(), s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("protocol=%s rounds=%d generated=%d pdr=%.4f\n",
		res.Protocol, res.Rounds, res.Generated, res.PDR())
	// Output:
	// protocol=QLEC rounds=3 generated=1510 pdr=1.0000
}

// ExampleCompareContext runs QLEC against classic k-means on one small,
// deterministic configuration.
func ExampleCompareContext() {
	s := qlec.DefaultScenario()
	s.Config.Rounds = 3
	s.Config.Seeds = []uint64{1}
	s.Config.LifespanDeathLine = 4.95
	s.Config.LifespanMaxRounds = 60
	rows, err := qlec.CompareContext(context.Background(), s, []qlec.Protocol{qlec.QLEC, qlec.KMeans})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("%s pdr=%.4f\n", r.Protocol, r.PDR.Mean)
	}
	// Output:
	// QLEC pdr=1.0000
	// k-means pdr=1.0000
}

// ExampleNewTopology builds a tiny explicit deployment and runs QLEC
// over it.
func ExampleNewTopology() {
	var pos []qlec.Vec3
	var energies []float64
	for i := 0; i < 30; i++ {
		pos = append(pos, qlec.Vec3{
			X: float64(i%5) * 20,
			Y: float64(i/5) * 20,
			Z: float64(i%3) * 30,
		})
		energies = append(energies, 5)
	}
	topo, err := qlec.NewTopology(pos, energies, qlec.Vec3{X: 40, Y: 50, Z: 30})
	if err != nil {
		log.Fatal(err)
	}
	s := qlec.DefaultScenario()
	s.Config.Topology = topo
	s.Config.K = 3
	s.Config.Rounds = 2
	res, err := qlec.RunContext(context.Background(), s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nodes=%d delivered=%d of %d\n",
		len(res.ConsumptionRates), res.Delivered, res.Generated)
	// Output:
	// nodes=30 delivered=284 of 284
}
