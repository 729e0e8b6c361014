// Quickstart: run QLEC once under the paper's settings (100 nodes in a
// 200×200×200 cube, 5 J each, 20 rounds) and print the headline metrics.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"qlec"
	"qlec/internal/sim"
)

func main() {
	// DefaultScenario is the paper's §5.1 setup: N=100, M=200, E0=5 J,
	// R=20 rounds, k=5 clusters, λ=4 s mean packet inter-arrival.
	scenario := qlec.DefaultScenario()

	// RunContext honours cancellation at round boundaries — a deadline
	// (or Ctrl-C wiring) stops the run and still returns the partial
	// result — and the observer streams per-round progress.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	scenario.Hooks.Observer = func(snap sim.RoundSnapshot) {
		fmt.Fprintf(os.Stderr, "\rround %d: %d alive, %.2f J spent", snap.Round+1, snap.Alive, float64(snap.EnergySoFar))
		if snap.Done {
			fmt.Fprintln(os.Stderr)
		}
	}

	res, err := qlec.RunContext(ctx, scenario)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("protocol:            %s\n", res.Protocol)
	fmt.Printf("rounds:              %d\n", res.Rounds)
	fmt.Printf("packets generated:   %d\n", res.Generated)
	fmt.Printf("packet delivery rate %.4f\n", res.PDR())
	fmt.Printf("total energy:        %.3f J of %s initial\n", float64(res.TotalEnergy), "500 J")
	fmt.Printf("mean access latency: %.4f s\n", res.Access.Mean)
	fmt.Printf("mean hops:           %.2f\n", res.Hops.Mean)

	// Compare against the paper's baselines at the same traffic level.
	rows, err := qlec.CompareContext(ctx, scenario, qlec.Protocols())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nprotocol    PDR      energy(J)  lifespan(rounds)")
	for _, r := range rows {
		fmt.Printf("%-10s  %.4f   %8.3f   %6.1f\n",
			r.Protocol, r.PDR.Mean, r.EnergyJ.Mean, r.Lifespan.Mean)
	}
}
