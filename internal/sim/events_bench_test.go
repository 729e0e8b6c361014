package sim

import (
	"context"
	"testing"

	"qlec/internal/core"
	"qlec/internal/energy"
	"qlec/internal/network"
	"qlec/internal/rng"
)

// BenchmarkEngineEvents is the round kernel's rung of the benchmark
// ladder. One op is NewEngine plus a 5-round QLEC run at the paper's
// §5.1 setup (N=100 in a 200 m cube, E0=5 J, k=5, Table 2 sim
// defaults, λ=4, seed 1). Deployment and protocol construction run
// outside the timer and every op repeats the same run, so the work per
// op does not depend on b.N. events/op counts generation events plus
// the radio and service events the queue carried.
func BenchmarkEngineEvents(b *testing.B) {
	const rounds = 5
	cfg := DefaultConfig()
	ctx := context.Background()
	b.ReportAllocs()
	events := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w, err := network.Deploy(network.Deployment{N: 100, Side: 200, InitialEnergy: 5},
			rng.NewNamed(1, "experiment/deploy"))
		if err != nil {
			b.Fatal(err)
		}
		qc := core.DefaultConfig(rounds)
		qc.K = 5
		proto, err := core.New(w, energy.DefaultModel(), qc)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		e, err := NewEngine(w, proto, energy.DefaultModel(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Start(rounds); err != nil {
			b.Fatal(err)
		}
		events = 0
		for done := false; !done; {
			snap, err := e.Step(ctx)
			if err != nil {
				b.Fatal(err)
			}
			events += len(e.main.genSched)
			done = snap.Done
		}
		events += int(e.main.seq)
	}
	b.ReportMetric(float64(events), "events/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
}
