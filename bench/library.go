package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"qlec/internal/cluster"
	"qlec/internal/core"
	"qlec/internal/dataset"
	"qlec/internal/energy"
	"qlec/internal/experiment"
	"qlec/internal/metrics"
	"qlec/internal/network"
	"qlec/internal/rng"
	"qlec/internal/runner"
	"qlec/internal/sim"
	"qlec/internal/stats"
)

// workers is the executor count of every workload: the sweep runner's
// pool, the service's worker pool, the fleet's total cell executors.
const workers = 2

// setupSamples is how many times a run sets its workload up; setup_s is
// the median. The first set-ups of a process pay one-time costs (page
// faults, lazy initialisation), so a few samples would let them move
// the median.
const setupSamples = 15

// simRun is one simulation built from the public layers and not yet
// run, with the time each layer took to build it.
type simRun struct {
	w                    *network.Network
	proto                cluster.Protocol
	model                energy.Model
	scfg                 sim.Config
	rounds               int
	synth, deploy, build time.Duration
}

// buildRun builds one simulation the way experiment.Config.RunOne does
// (Deploy → BuildProtocol), each layer under a span of parent.
func buildRun(c experiment.Config, id experiment.ProtocolID, lambda float64, seed uint64, lifespan bool, parent *span) (simRun, error) {
	s := parent.child("deploy")
	w, err := network.Deploy(network.Deployment{
		N: c.N, Side: c.Side, InitialEnergy: c.InitialEnergy,
		AdvancedFraction: c.AdvancedFraction, AdvancedFactor: c.AdvancedFactor,
		SuperFraction: c.SuperFraction, SuperFactor: c.SuperFactor,
	}, rng.NewNamed(seed, "experiment/deploy"))
	run := simRun{w: w, model: c.Model, scfg: c.Sim, rounds: c.Rounds, deploy: s.end()}
	if err != nil {
		return run, err
	}
	run.scfg.MeanInterArrival = lambda
	run.scfg.Seed = seed
	var deathLine energy.Joules
	if lifespan {
		run.rounds = c.LifespanMaxRounds
		deathLine = c.LifespanDeathLine
		run.scfg.DeathLine = deathLine
		run.scfg.StopOnDeath = true
	}
	s = parent.child("build " + string(id))
	run.proto, err = c.BuildProtocol(id, w, run.rounds, deathLine, seed)
	run.build = s.end()
	return run, err
}

// buildFig4 builds one Fig. 4 replicate the way experiment.RunFig4 does
// at a single seed (Synthesize → FromPositions → core.New).
func buildFig4(cfg experiment.Fig4Config, parent *span) (simRun, error) {
	run := simRun{model: cfg.Model, scfg: cfg.Sim, rounds: cfg.Rounds}
	s := parent.child("synthesize")
	ds, err := dataset.Synthesize(cfg.Synth)
	run.synth = s.end()
	if err != nil {
		return run, err
	}
	s = parent.child("deploy")
	run.w, err = network.FromPositions(ds.Positions, ds.Energies, ds.Box, ds.BS)
	run.deploy = s.end()
	if err != nil {
		return run, err
	}
	qc := core.DefaultConfig(cfg.Rounds)
	qc.K = cfg.K
	if qc.K == 0 {
		qc.K = core.AutoK(run.w, cfg.Model)
	}
	qc.Bits = cfg.Sim.Bits
	qc.Seed = cfg.Synth.Seed
	s = parent.child("build QLEC")
	run.proto, err = core.New(run.w, cfg.Model, qc)
	run.build = s.end()
	return run, err
}

// tracedRun executes one simulation the way experiment.Config.RunOne
// does, rebuilt from the public layers so each layer is timed and the
// protocol runs inside the timing decorator. Its result must equal
// RunOne's byte for byte.
func (t *tracer) tracedRun(ctx context.Context, c experiment.Config, id experiment.ProtocolID, lambda float64, seed uint64, lifespan bool, parent *span) (*metrics.Result, error) {
	run, err := buildRun(c, id, lambda, seed, lifespan, parent)
	if err != nil {
		return nil, err
	}
	return t.runEngine(ctx, run, parent)
}

// runEngine runs a built simulation inside the timing decorator on a
// fresh engine and folds the run into the aggregates.
func (t *tracer) runEngine(ctx context.Context, run simRun, parent *span) (*metrics.Result, error) {
	wrapped, timed, err := wrapProtocol(run.proto)
	if err != nil {
		return nil, err
	}
	s := parent.child("run " + run.proto.Name())
	engine, err := sim.NewEngine(run.w, wrapped, run.model, run.scfg)
	if err != nil {
		s.end()
		return nil, err
	}
	res, err := engine.Run(ctx, run.rounds)
	d := s.end()
	if err != nil {
		return nil, err
	}
	t.addRun(timed, run.deploy, run.build, d, res.Generated)
	return res, nil
}

// tracedCell executes one sweep cell (a fixed-round run plus a lifespan
// run) the way experiment.CellSpec.Run does.
func (t *tracer) tracedCell(ctx context.Context, spec experiment.CellSpec, op string) (experiment.CellOutcome, error) {
	s := t.root(op, "worker", fmt.Sprintf("cell %s λ=%g seed=%d", spec.Protocol, spec.Lambda, spec.Seed))
	defer func() { t.addCell(s.end()) }()
	res, err := t.tracedRun(ctx, spec.Config, spec.Protocol, spec.Lambda, spec.Seed, false, s)
	if err != nil {
		return experiment.CellOutcome{}, err
	}
	lres, err := t.tracedRun(ctx, spec.Config, spec.Protocol, spec.Lambda, spec.Seed, true, s)
	if err != nil {
		return experiment.CellOutcome{}, err
	}
	ls := lres.Lifespan
	if ls == 0 { // survived the cap
		ls = lres.Rounds
	}
	return experiment.CellOutcome{
		PDR:      res.PDR(),
		EnergyJ:  float64(res.TotalEnergy),
		Latency:  res.Latency.Mean,
		Access:   res.Access.Mean,
		Lifespan: float64(ls),
	}, nil
}

// mapCells runs cells on the workers-sized runner pool, traced when t is
// non-nil and through CellSpec.Run otherwise.
func mapCells(ctx context.Context, t *tracer, specs []experiment.CellSpec, op string) ([]experiment.CellOutcome, error) {
	return runner.Map(ctx, len(specs), runner.Options{Workers: workers},
		func(ctx context.Context, i int) (experiment.CellOutcome, error) {
			if t != nil {
				return t.tracedCell(ctx, specs[i], op)
			}
			return specs[i].Run(ctx)
		})
}

// fig3JSON assembles Fig. 3 cell outcomes and encodes the result, the
// form every Fig. 3 output is compared in.
func fig3JSON(cfg experiment.Config, ids []experiment.ProtocolID, cells []experiment.CellOutcome) ([]byte, error) {
	res, err := experiment.AssembleFig3(ids, cfg.Lambdas, cfg.Seeds, cells)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// fig4Output is the compared output of one Fig. 4 run.
type fig4Output struct {
	Run      *metrics.Result
	BinnedCV float64
	Gini     float64
	MoranI   float64
}

// tracedFig4 executes one Fig. 4 replicate the way experiment.RunFig4
// does at a single seed, with each layer timed.
func (t *tracer) tracedFig4(ctx context.Context, cfg experiment.Fig4Config, op string) ([]byte, error) {
	root := t.root(op, "worker", "fig4")
	defer func() { t.addCell(root.end()) }()
	run, err := buildFig4(cfg, root)
	t.addExtra("dataset.synth_ms", run.synth)
	if err != nil {
		return nil, err
	}
	res, err := t.runEngine(ctx, run, root)
	if err != nil {
		return nil, err
	}
	s := root.child("evenness")
	out := fig4Output{Run: res}
	w := run.w
	field := stats.SpatialField{Points: w.Positions(), Values: res.ConsumptionRates}
	if out.BinnedCV, err = field.BinnedCV(w.Box, 6); err == nil {
		if out.Gini, err = stats.GiniCoefficient(res.ConsumptionRates); err == nil {
			out.MoranI, err = field.MoranI(w.Box.Size().X / 8)
		}
	}
	t.addExtra("stats.evenness_ms", s.end())
	if err != nil {
		return nil, err
	}
	return json.Marshal(out)
}

// repeat calls op until d has elapsed, at least minReps times, and
// returns the wall time of each call and the process's peak RSS during
// it.
func repeat(d time.Duration, minReps int, op func()) ([]time.Duration, []float64) {
	var walls []time.Duration
	var peaks []float64
	deadline := time.Now().Add(d)
	for len(walls) < minReps || time.Now().Before(deadline) {
		resetPeakRSS()
		t := time.Now()
		op()
		walls = append(walls, time.Since(t))
		peaks = append(peaks, peakRSSMB())
	}
	return walls, peaks
}

// timeEach calls op n times and returns the wall time of each call.
// Each call starts from a collected heap, not from the last one's
// garbage.
func timeEach(n int, op func() error) ([]time.Duration, error) {
	walls := make([]time.Duration, n)
	for i := range walls {
		runtime.GC()
		t := time.Now()
		if err := op(); err != nil {
			return nil, err
		}
		walls[i] = time.Since(t)
	}
	return walls, nil
}

func total(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum
}

// libraryWorkload is the shape shared by the two library workloads: a
// set-up measured on its own, a warm-up whose output every later
// repetition must reproduce, timed untraced repetitions, and on traced
// runs a second phase of traced repetitions through the rebuilt layer
// path.
type libraryWorkload struct {
	name   string
	ops    int          // operations per repetition
	setup  func() error // builds every simulation of a repetition without running it
	run    func() ([]byte, error)
	traced func(op string) ([]byte, error)
}

func (lw libraryWorkload) measure(o runOpts) (*report, error) {
	r := &report{workload: lw.name}
	setups, err := timeEach(setupSamples, lw.setup)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", lw.name, err)
	}
	start := time.Now()
	want, err := lw.run() // the warm-up
	if err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", lw.name, err)
	}
	r.add("warmup_s", time.Since(start).Seconds(), "s", 1)
	r.ops(lw.ops)
	o.checkGolden(r, want, lw.ops)

	rep := 0
	check := func(run func() ([]byte, error)) func() {
		return func() {
			rep++
			r.ops(lw.ops)
			got, err := run()
			switch {
			case err != nil:
				r.fail(lw.ops, "repetition %d: %v", rep, err)
			case !bytes.Equal(got, want):
				r.fail(lw.ops, "repetition %d output differs from the warm-up's", rep)
			}
		}
	}
	phase := o.seconds
	if o.trace != nil {
		phase /= 2
	}
	before := readRuntimeCost()
	walls, peaks := repeat(phase, o.scale.minReps, check(lw.run))
	if o.trace == nil {
		r.addEndToEnd(setups, float64(lw.ops)/(stats.Median(ms(walls))/1000), len(walls), walls, peaks)
		return r, nil
	}
	r.addRuntimeCost(before, len(walls)*lw.ops)
	traced, _ := repeat(phase, o.scale.minReps, check(func() ([]byte, error) {
		return lw.traced(fmt.Sprintf("rep%d", rep))
	}))
	r.addOverhead(ms(walls), ms(traced))
	o.trace.addLayers(r, total(traced))
	addNoDaemon(r)
	return r, nil
}

// addNoDaemon reports the service and fleet layer counts of a workload
// that runs no daemon.
func addNoDaemon(r *report) {
	r.addZero("count", "http.requests_per_op", "service.simulations_per_op")
	r.addZero("count/batch", "fleet.cells_stolen", "fleet.steal_starvation", "fleet.cache_replications")
}

// paperSweep is Fig. 3 at paper scale through Config.RunFig3: every
// protocol × λ × the five seeds of the block, each cell a fixed-round
// run plus a lifespan run.
func paperSweep(ctx context.Context, o runOpts) (*report, error) {
	cfg := o.scale.sweep
	cfg.Seeds = seedBlock(o.seed, 5)
	cfg.Workers = workers
	ids := o.scale.protocols
	specs, err := cfg.Fig3Cells(ids)
	if err != nil {
		return nil, err
	}
	return libraryWorkload{
		name: "paper-sweep",
		ops:  len(specs),
		setup: func() error {
			for _, sp := range specs {
				for _, lifespan := range []bool{false, true} {
					run, err := buildRun(sp.Config, sp.Protocol, sp.Lambda, sp.Seed, lifespan, nil)
					if err == nil {
						_, err = sim.NewEngine(run.w, run.proto, run.model, run.scfg)
					}
					if err != nil {
						return err
					}
				}
			}
			return nil
		},
		run: func() ([]byte, error) {
			res, err := cfg.RunFig3(ctx, ids)
			if err != nil {
				return nil, err
			}
			return json.Marshal(res)
		},
		traced: func(op string) ([]byte, error) {
			cells, err := mapCells(ctx, o.trace, specs, op)
			if err != nil {
				return nil, err
			}
			return fig3JSON(cfg, ids, cells)
		},
	}.measure(o)
}

// largeScale is Fig. 4 through experiment.RunFig4: QLEC over the
// synthetic 2896-node set at k=272, one replicate at the block's seed.
func largeScale(ctx context.Context, o runOpts) (*report, error) {
	cfg := o.scale.fig4
	cfg.Synth.Seed = o.seed
	return libraryWorkload{
		name: "large-scale",
		ops:  1,
		setup: func() error {
			run, err := buildFig4(cfg, nil)
			if err == nil {
				_, err = sim.NewEngine(run.w, run.proto, run.model, run.scfg)
			}
			return err
		},
		run: func() ([]byte, error) {
			res, err := experiment.RunFig4(ctx, cfg)
			if err != nil {
				return nil, err
			}
			return json.Marshal(fig4Output{res.Run, res.BinnedCV, res.Gini, res.MoranI})
		},
		traced: func(op string) ([]byte, error) { return o.trace.tracedFig4(ctx, cfg, op) },
	}.measure(o)
}
