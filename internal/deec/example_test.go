package deec_test

import (
	"fmt"
	"log"

	"qlec/internal/deec"
	"qlec/internal/network"
	"qlec/internal/rng"
)

// Example runs three rounds of improved-DEEC head selection over the
// paper's deployment and shows the pinned head count and rotation.
func Example() {
	w, err := network.Deploy(network.Deployment{
		N: 100, Side: 200, InitialEnergy: 5,
	}, rng.New(1))
	if err != nil {
		log.Fatal(err)
	}
	cfg := deec.Config{
		K: 5, TotalRounds: 20,
		EnergyFloor: true, ReduceRedundancy: true, TopUp: true,
	}
	sel, err := deec.NewSelector(w, cfg, rng.NewNamed(1, "deec"))
	if err != nil {
		log.Fatal(err)
	}
	seen := map[int]bool{}
	for r := 0; r < 3; r++ {
		heads := sel.Select(r)
		fmt.Printf("round %d: %d heads\n", r, len(heads))
		for _, h := range heads {
			if seen[h] {
				fmt.Println("head repeated within the rotating epoch!")
			}
			seen[h] = true
		}
	}
	fmt.Println("distinct heads over 3 rounds:", len(seen))
	// Output:
	// round 0: 5 heads
	// round 1: 5 heads
	// round 2: 5 heads
	// distinct heads over 3 rounds: 15
}
