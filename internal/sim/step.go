package sim

import (
	"context"
	"errors"
	"fmt"

	"qlec/internal/energy"
	"qlec/internal/metrics"
)

// ErrRunComplete is returned by Step once the run has finished (round
// cap reached, or first death under Config.StopOnDeath).
var ErrRunComplete = errors.New("sim: run already complete")

// RoundSnapshot is the per-round observation the stepper API exposes:
// what just happened (Stats) and where the run stands (Alive,
// EnergySoFar, Done). Orchestration layers use it for live progress,
// early stopping and — in the RL framing of PAPERS.md — as the
// per-episode observation of a training loop.
type RoundSnapshot struct {
	// Round is the 0-based index of the round just executed.
	Round int
	// Stats are the round's measurements (traffic, drops, energy,
	// latency).
	Stats metrics.RoundStats
	// Alive counts nodes above the death line at round end.
	Alive int
	// EnergySoFar is the cumulative network-wide consumption through
	// this round.
	EnergySoFar energy.Joules
	// Done reports that this was the run's final round.
	Done bool
	// MeanQ summarizes the protocol's Q-learning state when HasQ is
	// true. It is filled only while an Observer is installed (computing
	// MeanQ walks the V table) and only for protocols implementing
	// QLearningStats.
	MeanQ float64
	HasQ  bool
}

// QLearningStats is the optional protocol interface behind
// RoundSnapshot's MeanQ field. ok reports whether the protocol is
// actually learning (e.g. false in DEEC ablation modes). The middle
// result is unused: routing is purely greedy, so it is always 0.
type QLearningStats interface {
	QLearningStats() (meanQ, _ float64, ok bool)
}

// Observer receives one RoundSnapshot per executed round, after the
// round completes. Unlike Tracer (per-packet, hot path) an Observer is
// per-round and may do real work — progress meters, adaptive stopping,
// metric streaming.
type Observer func(RoundSnapshot)

// SetObserver installs a per-round observer. Call before Start/Run;
// passing nil disables observation.
func (e *Engine) SetObserver(o Observer) { e.observer = o }

// Start begins a run of up to rounds rounds. Engines are single-use:
// starting twice is an error (build a new engine per run — they are
// cheap relative to any run).
func (e *Engine) Start(rounds int) error {
	if rounds <= 0 {
		return fmt.Errorf("sim: rounds must be positive, got %d", rounds)
	}
	if e.res != nil {
		return fmt.Errorf("sim: engine already started; engines are single-use")
	}
	e.res = &metrics.Result{Protocol: e.proto.Name(), FirstDead: -1}
	e.targetRounds = rounds
	e.nextRound = 0
	e.finished = false
	return nil
}

// Step advances the simulation one round and reports what happened.
// The context is only checked between rounds (a round is the engine's
// atomic unit of work): a cancelled ctx returns ctx.Err() before any
// state changes, so the accumulated partial result stays consistent.
// After the final round Step returns ErrRunComplete.
func (e *Engine) Step(ctx context.Context) (RoundSnapshot, error) {
	if e.res == nil {
		return RoundSnapshot{}, fmt.Errorf("sim: Step before Start")
	}
	if e.finished {
		return RoundSnapshot{}, ErrRunComplete
	}
	if err := ctx.Err(); err != nil {
		return RoundSnapshot{}, err
	}
	r := e.nextRound
	e.runRound(r)
	e.res.Rounds++
	e.res.PerRound = append(e.res.PerRound, e.round)
	if e.mover != nil {
		e.moveNodes()
	}
	if id, dead := e.net.FirstDead(e.cfg.DeathLine); dead && e.res.Lifespan == 0 {
		e.res.Lifespan = r + 1
		e.res.FirstDead = id
		if e.cfg.StopOnDeath {
			e.finished = true
		}
	}
	e.nextRound++
	if e.nextRound >= e.targetRounds {
		e.finished = true
	}
	snap := RoundSnapshot{
		Round:       r,
		Stats:       e.round,
		Alive:       e.round.AliveAtEnd,
		EnergySoFar: e.res.TotalEnergy,
		Done:        e.finished,
	}
	if e.observer != nil {
		// Q stats are observer-only: walking the V table every round
		// would tax the unobserved benchmark path for data nobody reads.
		if qs, ok := e.proto.(QLearningStats); ok {
			snap.MeanQ, _, snap.HasQ = qs.QLearningStats()
		}
		e.observer(snap)
	}
	return snap, nil
}

// Result finalizes and returns the measurements accumulated so far.
// It may be called mid-run — after a cancelled Step, or between Steps —
// for a consistent partial result; the summary fields are recomputed on
// every call. Returns nil before Start.
func (e *Engine) Result() *metrics.Result {
	if e.res == nil {
		return nil
	}
	e.res.Energy = e.breakdown
	e.res.Latency = e.latency.Summary()
	e.res.Access = e.access.Summary()
	e.res.Hops = e.hops.Summary()
	e.res.ConsumptionRates = e.net.ConsumptionRates()
	return e.res
}
