package sim

import (
	"context"
	"errors"
	"testing"

	"qlec/internal/energy"
	"qlec/internal/network"
	"qlec/internal/rng"
)

// stepEngine builds a small engine for stepper tests.
func stepEngine(t *testing.T, seed uint64) *Engine {
	t.Helper()
	w, err := network.Deploy(network.Deployment{N: 40, Side: 150, InitialEnergy: 5},
		rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = seed
	e, err := NewEngine(w, &stubProtocol{net: w, heads: []int{3, 17, 29}}, energy.DefaultModel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestStepLoopMatchesRun(t *testing.T) {
	const rounds = 5
	ran, err := stepEngine(t, 9).Run(context.Background(), rounds)
	if err != nil {
		t.Fatal(err)
	}

	e := stepEngine(t, 9)
	if err := e.Start(rounds); err != nil {
		t.Fatal(err)
	}
	var snaps []RoundSnapshot
	for {
		snap, err := e.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
		if snap.Done {
			break
		}
	}
	stepped := e.Result()

	if len(snaps) != rounds {
		t.Fatalf("%d snapshots", len(snaps))
	}
	if ran.Generated != stepped.Generated || ran.Delivered != stepped.Delivered ||
		ran.TotalEnergy != stepped.TotalEnergy || ran.Rounds != stepped.Rounds {
		t.Fatalf("Step loop diverged from Run: %+v vs %+v", stepped, ran)
	}
	for i, snap := range snaps {
		if snap.Round != i {
			t.Fatalf("snapshot %d has Round %d", i, snap.Round)
		}
		if snap.Stats.Heads != 3 {
			t.Fatalf("round %d: %d heads", i, snap.Stats.Heads)
		}
		if snap.Stats != ran.PerRound[i] {
			t.Fatalf("round %d stats diverge: %+v vs %+v", i, snap.Stats, ran.PerRound[i])
		}
		if snap.Alive != snap.Stats.AliveAtEnd {
			t.Fatalf("round %d alive %d vs stats %d", i, snap.Alive, snap.Stats.AliveAtEnd)
		}
	}
	// Energy is cumulative and non-decreasing across snapshots.
	for i := 1; i < len(snaps); i++ {
		if snaps[i].EnergySoFar < snaps[i-1].EnergySoFar {
			t.Fatal("EnergySoFar decreased")
		}
	}
	if got := snaps[rounds-1].EnergySoFar; got != ran.TotalEnergy {
		t.Fatalf("final EnergySoFar %v vs run total %v", got, ran.TotalEnergy)
	}
	if !snaps[rounds-1].Done {
		t.Fatal("last snapshot not Done")
	}

	// Stepping past the end is an explicit error.
	if _, err := e.Step(context.Background()); !errors.Is(err, ErrRunComplete) {
		t.Fatalf("Step after Done: %v", err)
	}
}

func TestStepContextCancellation(t *testing.T) {
	e := stepEngine(t, 4)
	if err := e.Start(10); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := e.Step(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := e.Step(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Step returned %v", err)
	}
	// The partial result stays consistent: exactly one round recorded.
	res := e.Result()
	if res.Rounds != 1 || len(res.PerRound) != 1 {
		t.Fatalf("partial result rounds = %d", res.Rounds)
	}
	// A fresh context can resume the run.
	if _, err := e.Step(context.Background()); err != nil {
		t.Fatalf("resume after cancellation: %v", err)
	}
}

func TestRunReturnsPartialResultOnCancel(t *testing.T) {
	e := stepEngine(t, 11)
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from the observer after the third round completes.
	e.SetObserver(func(snap RoundSnapshot) {
		if snap.Round == 2 {
			cancel()
		}
	})
	res, err := e.Run(ctx, 50)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if res == nil {
		t.Fatal("no partial result")
	}
	if res.Rounds != 3 {
		t.Fatalf("partial result has %d rounds, want 3", res.Rounds)
	}
	if res.Generated == 0 || res.TotalEnergy <= 0 {
		t.Fatalf("partial result empty: %+v", res)
	}
}

func TestObserverSeesEveryRound(t *testing.T) {
	e := stepEngine(t, 2)
	var rounds []int
	var lastDone bool
	e.SetObserver(func(snap RoundSnapshot) {
		rounds = append(rounds, snap.Round)
		lastDone = snap.Done
	})
	if _, err := e.Run(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 4 {
		t.Fatalf("observer saw %d rounds", len(rounds))
	}
	for i, r := range rounds {
		if r != i {
			t.Fatalf("observer order %v", rounds)
		}
	}
	if !lastDone {
		t.Fatal("observer never saw Done")
	}
}

func TestEnginesAreSingleUse(t *testing.T) {
	e := stepEngine(t, 3)
	if _, err := e.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(2); err == nil {
		t.Fatal("second Start accepted")
	}
	if _, err := e.Run(context.Background(), 2); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestStepBeforeStart(t *testing.T) {
	e := stepEngine(t, 5)
	if _, err := e.Step(context.Background()); err == nil {
		t.Fatal("Step before Start accepted")
	}
	if res := e.Result(); res != nil {
		t.Fatal("Result before Start non-nil")
	}
}

func TestStopOnDeathEndsStepper(t *testing.T) {
	w, err := network.Deploy(network.Deployment{N: 30, Side: 150, InitialEnergy: 5},
		rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 8
	cfg.DeathLine = 4.99
	cfg.StopOnDeath = true
	cfg.MeanInterArrival = 0.5
	e, err := NewEngine(w, &stubProtocol{net: w, heads: []int{1, 2}}, energy.DefaultModel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lifespan == 0 {
		t.Fatal("no death observed")
	}
	if res.Rounds != res.Lifespan {
		t.Fatalf("run did not stop at death: rounds %d lifespan %d", res.Rounds, res.Lifespan)
	}
}
