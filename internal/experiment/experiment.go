// Package experiment is the reproduction harness: it wires networks,
// protocols and the simulation engine into the exact measurements the
// paper reports, with multi-seed replication.
//
// Per-experiment index (see DESIGN.md §4):
//
//   - Table 2  — PaperConfig pins every published parameter.
//   - Fig 3(a) — RunFig3 sweeps λ and reports packet delivery rate.
//   - Fig 3(b) — same sweep, cumulative energy over R rounds.
//   - Fig 3(c) — same sweep, rounds until the first node crosses the
//     death line.
//   - Fig 4    — RunFig4 runs QLEC over the 2896-node power-plant
//     dataset and maps per-node energy-consumption rates, plus scalar
//     spatial-evenness statistics (binned CV, Gini, Moran's I).
package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"

	"qlec/internal/audit"
	"qlec/internal/cluster"
	"qlec/internal/core"
	"qlec/internal/dataset"
	"qlec/internal/energy"
	"qlec/internal/metrics"
	"qlec/internal/network"
	"qlec/internal/protocol"
	"qlec/internal/qlearn"
	"qlec/internal/rng"
	"qlec/internal/runner"
	"qlec/internal/sim"
	"qlec/internal/stats"

	// Link every in-tree protocol into the registry the harness
	// resolves against.
	_ "qlec/internal/protocol/all"
)

// ProtocolID names a protocol the harness can build. The id space is
// owned by the protocol registry (internal/protocol): any registered
// canonical id or alias resolves, and the constants below are
// conveniences for the in-tree protocols, not an exhaustive list.
type ProtocolID string

// The in-tree protocols the commands name. QLEC plus the paper's two
// baselines are the headline set; LEACH and the QLEC ablations support
// the extra benches. The related-work competitors (T-DEEC, Q-LEACH) are
// named by their registry ids.
const (
	QLEC        ProtocolID = "QLEC"
	FCM         ProtocolID = "FCM"
	KMeans      ProtocolID = "k-means"
	LEACH       ProtocolID = "LEACH"
	DEECNearest ProtocolID = "DEEC-nearest" // QLEC minus Q-learning
	QLECNoFloor ProtocolID = "QLEC-nofloor" // QLEC minus Eq. (4)
	QLECNoRR    ProtocolID = "QLEC-norr"    // QLEC minus Algorithm 3
	DEECPlain   ProtocolID = "DEEC-plain"   // classic DEEC (Qing et al. 2006)
	Direct      ProtocolID = "direct-to-BS" // no clustering at all
)

// PaperProtocols returns the protocols of Figure 3, in the paper's
// order, from the registry's Figure3Rank marks.
func PaperProtocols() []ProtocolID {
	return toIDs(protocol.Figure3())
}

// CompetitorProtocols returns the registered non-ablation protocols —
// the tournament's default field.
func CompetitorProtocols() []ProtocolID {
	var out []ProtocolID
	for _, d := range protocol.All() {
		if !d.Ablation {
			out = append(out, ProtocolID(d.ID))
		}
	}
	return out
}

func toIDs(ds []protocol.Descriptor) []ProtocolID {
	out := make([]ProtocolID, len(ds))
	for i, d := range ds {
		out[i] = ProtocolID(d.ID)
	}
	return out
}

// KnownProtocol reports whether id resolves to a registered protocol
// (canonical id or alias, case-insensitive). O(1) registry lookup.
func KnownProtocol(id ProtocolID) bool {
	return protocol.Known(string(id))
}

// CanonicalProtocol maps any accepted spelling of a protocol name to
// its canonical registry id; unknown ids pass through unchanged.
func CanonicalProtocol(id ProtocolID) ProtocolID {
	return ProtocolID(protocol.Canonical(string(id)))
}

// Config assembles one experiment family.
type Config struct {
	// Deployment (§5.1): N nodes, cube side M, per-node initial energy.
	N             int
	Side          float64
	InitialEnergy energy.Joules
	// Rounds is R, the paper's 20 successive rounds.
	Rounds int
	// K is the cluster count (the paper uses k_opt ≈ 5; see DESIGN.md
	// §6.2 on the Theorem 1 discrepancy).
	K int
	// Lambdas is the traffic sweep for Figure 3 ("four network
	// conditions with different λ").
	Lambdas []float64
	// Seeds replicate every measurement; summaries aggregate across
	// them.
	Seeds []uint64
	// LifespanDeathLine is the death line for Fig 3(c) runs (the paper
	// raises/lowers the line depending on the measurement).
	LifespanDeathLine energy.Joules
	// LifespanMaxRounds caps Fig 3(c) runs.
	LifespanMaxRounds int
	// Sim is the base engine configuration; MeanInterArrival and Seed
	// are overridden per sweep point and replication.
	Sim sim.Config
	// Model holds the radio constants (Table 2).
	Model energy.Model
	// FCMLevels is the baseline's hierarchy depth.
	FCMLevels int
	// Topology, when non-nil, replaces the uniform-cube deployment with
	// explicit node positions and per-node energies (underwater columns,
	// terrain-following deployments, real datasets). N, Side and
	// InitialEnergy are ignored in that case.
	Topology *dataset.Dataset
	// AdvancedFraction/AdvancedFactor provision a two-tier heterogeneous
	// network (DEEC's original setting): a fraction of nodes start with
	// (1+factor)·InitialEnergy. Ignored with a custom Topology.
	AdvancedFraction float64
	AdvancedFactor   float64
	// SuperFraction/SuperFactor provision a third tier of "super" nodes
	// with (1+SuperFactor)·InitialEnergy — T-DEEC's three-tier setting
	// (arXiv 1408.4112). Ignored with a custom Topology.
	SuperFraction float64
	SuperFactor   float64
	// ProtocolParams overrides registered protocols' tunables by name
	// (e.g. "thresholdFrac" for T-DEEC, "sectors" for Q-LEACH); unset
	// keys fall back to each descriptor's DefaultParams.
	ProtocolParams map[string]float64
	// Workers bounds sweep parallelism: 0 fans out across the CPUs,
	// 1 forces the serial reference schedule (results are identical
	// either way; see runner.Map). Workers and Progress are scheduling
	// knobs, not data; they stay in Config because bench/ sets Workers.
	Workers int
	// Progress, when non-nil, receives sweep completion updates (cells
	// done out of total). Called from worker goroutines, serialized.
	// Excluded from JSON.
	Progress runner.Progress `json:"-"`
}

// Hooks are the observation hooks of one run. None of them changes a
// result, so none belongs in Config (whose result-determining fields
// are the content address; see canonical.go): a run takes its hooks as
// an argument, and a sweep's cells run with none.
type Hooks struct {
	// Tracer, when non-nil, observes every packet transition (see
	// sim.Tracer).
	Tracer sim.Tracer
	// Observer, when non-nil, receives one sim.RoundSnapshot per round:
	// live progress, early-stopping hooks.
	Observer sim.Observer
	// Audit, when non-nil, is the flight recorder: the run binds it to
	// the network, installs it on the engine, and, for Q-learning
	// protocols, attaches it to the learner's decision stream.
	// Recorders are single-use.
	Audit *audit.Recorder
}

// runMode selects a run's round budget and death-line semantics: the
// fixed and lifespan runs RunOneWith describes, or an endurance run,
// which is a lifespan run that keeps going past the first death so the
// full alive-count trajectory is recorded (the tournament's FND/HND
// methodology). Only the tournament selects endurance; no request can.
type runMode int

const (
	fixedRun runMode = iota
	lifespanRun
	enduranceRun
)

// PaperConfig returns the paper's §5.1/Table 2 experiment setup.
func PaperConfig() Config {
	return Config{
		N:                 100,
		Side:              200,
		InitialEnergy:     5,
		Rounds:            20,
		K:                 5,
		Lambdas:           []float64{8, 4, 2, 1},
		Seeds:             []uint64{1, 2, 3, 4, 5},
		LifespanDeathLine: 2.5,
		LifespanMaxRounds: 3000,
		Sim:               sim.DefaultConfig(),
		Model:             energy.DefaultModel(),
		FCMLevels:         3,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	n := c.nodes()
	if c.Topology != nil {
		if err := c.Topology.Validate(); err != nil {
			return err
		}
	} else if c.N <= 0 || c.Side <= 0 || c.InitialEnergy <= 0 {
		return fmt.Errorf("experiment: invalid deployment (N=%d, side=%v, E0=%v)",
			c.N, c.Side, c.InitialEnergy)
	}
	if c.Rounds <= 0 {
		return fmt.Errorf("experiment: Rounds must be positive, got %d", c.Rounds)
	}
	if c.K <= 0 || c.K > n {
		return fmt.Errorf("experiment: K=%d outside [1,%d]", c.K, n)
	}
	if len(c.Lambdas) == 0 {
		return fmt.Errorf("experiment: no lambda sweep points")
	}
	for _, l := range c.Lambdas {
		if !(l > 0) {
			return fmt.Errorf("experiment: lambda %v not positive", l)
		}
	}
	if len(c.Seeds) == 0 {
		return fmt.Errorf("experiment: no seeds")
	}
	if c.LifespanMaxRounds <= 0 {
		return fmt.Errorf("experiment: LifespanMaxRounds must be positive")
	}
	if c.FCMLevels < 1 {
		return fmt.Errorf("experiment: FCMLevels must be >= 1")
	}
	return c.Sim.Validate()
}

// nodes is the size of the configured network: the topology's when one
// is set, else N.
func (c Config) nodes() int {
	if c.Topology != nil {
		return len(c.Topology.Positions)
	}
	return c.N
}

// ValidateProtocol checks that protocol id runs on the configured
// network (protocol.Descriptor.MinNodes). Sweeps and RunOne call it
// after Validate, so a network too small for a protocol is reported
// before any cell starts. An unknown id passes: BuildProtocol reports
// it, for each cell.
func (c Config) ValidateProtocol(id ProtocolID) error {
	d, ok := protocol.Lookup(string(id))
	if n := c.nodes(); ok && n < d.MinNodes {
		return fmt.Errorf("experiment: %s needs N ≥ %d, got N=%d", d.ID, d.MinNodes, n)
	}
	return nil
}

// BuildProtocol constructs a protocol instance bound to the network by
// resolving id through the protocol registry. totalRounds is the
// planned R the protocol should assume (lifespan runs pass their round
// cap).
func (c Config) BuildProtocol(id ProtocolID, w *network.Network, totalRounds int, deathLine energy.Joules, seed uint64) (cluster.Protocol, error) {
	d, ok := protocol.Lookup(string(id))
	if !ok {
		return nil, fmt.Errorf("experiment: unknown protocol %q", id)
	}
	k := c.K
	if k > w.N() {
		k = w.N()
	}
	return d.Factory(protocol.BuildContext{
		Net:         w,
		Model:       c.Model,
		K:           k,
		TotalRounds: totalRounds,
		DeathLine:   deathLine,
		Seed:        seed,
		Bits:        c.Sim.Bits,
		FCMLevels:   c.FCMLevels,
		Params:      protocol.MergeParams(d.DefaultParams, c.ProtocolParams),
	})
}

// RunOne executes a single simulation without hooks; it is RunOneWith
// with zero Hooks.
func (c Config) RunOne(ctx context.Context, id ProtocolID, lambda float64, seed uint64, lifespan bool) (*metrics.Result, error) {
	return c.RunOneWith(ctx, id, lambda, seed, lifespan, Hooks{})
}

// RunOneWith executes a single simulation: protocol id, traffic λ, seed,
// observed through h. When lifespan is true the run uses the lifespan
// death line, stops on first death and may run up to LifespanMaxRounds;
// otherwise it runs exactly Rounds rounds with a zero death line (the
// paper's "lower the energy death line" methodology for PDR/energy
// measurements).
//
// Cancelling ctx stops the run at the next round boundary; the partial
// result accumulated so far is returned alongside ctx's error.
func (c Config) RunOneWith(ctx context.Context, id ProtocolID, lambda float64, seed uint64, lifespan bool, h Hooks) (*metrics.Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := c.ValidateProtocol(id); err != nil {
		return nil, err
	}
	mode := fixedRun
	if lifespan {
		mode = lifespanRun
	}
	return c.run(ctx, id, lambda, seed, mode, h)
}

// run is RunOneWith minus the validation, with the run mode spelled
// out: every run, hooked or not, reaches the engine here. The sweep
// entry points validate their (derived) configurations exactly once up
// front and then run every (protocol, λ, seed) cell through this path,
// so a bad configuration is reported immediately instead of N times
// from inside the worker pool.
func (c Config) run(ctx context.Context, id ProtocolID, lambda float64, seed uint64, mode runMode, h Hooks) (*metrics.Result, error) {
	var w *network.Network
	var err error
	if c.Topology != nil {
		w, err = network.FromPositions(c.Topology.Positions, c.Topology.Energies,
			c.Topology.Box, c.Topology.BS)
	} else {
		w, err = network.Deploy(network.Deployment{
			N: c.N, Side: c.Side, InitialEnergy: c.InitialEnergy,
			AdvancedFraction: c.AdvancedFraction, AdvancedFactor: c.AdvancedFactor,
			SuperFraction: c.SuperFraction, SuperFactor: c.SuperFactor,
		}, rng.NewNamed(seed, "experiment/deploy"))
	}
	if err != nil {
		return nil, err
	}
	rounds := c.Rounds
	var deathLine energy.Joules
	scfg := c.Sim
	scfg.MeanInterArrival = lambda
	scfg.Seed = seed
	if mode != fixedRun {
		rounds = c.LifespanMaxRounds
		deathLine = c.LifespanDeathLine
		scfg.DeathLine = deathLine
		scfg.StopOnDeath = mode == lifespanRun
	}
	proto, err := c.BuildProtocol(id, w, rounds, deathLine, seed)
	if err != nil {
		return nil, err
	}
	engine, err := sim.NewEngine(w, proto, c.Model, scfg)
	if err != nil {
		return nil, err
	}
	if h.Tracer != nil {
		engine.SetTracer(h.Tracer)
	}
	if h.Observer != nil {
		engine.SetObserver(h.Observer)
	}
	if h.Audit != nil {
		k := c.K
		if k > w.N() {
			k = w.N()
		}
		if err := h.Audit.Bind(w, deathLine, k); err != nil {
			return nil, err
		}
		engine.SetAuditor(h.Audit)
		if ql, ok := proto.(interface{ Learner() *qlearn.Learner }); ok {
			h.Audit.ObserveLearner(ql.Learner())
		}
	}
	return engine.Run(ctx, rounds)
}

// SweepPoint aggregates one (protocol, λ) cell across seeds.
type SweepPoint struct {
	Lambda   float64
	PDR      stats.Summary
	EnergyJ  stats.Summary // total Joules over the R rounds
	Lifespan stats.Summary // rounds to first death (lifespan runs)
	Latency  stats.Summary // mean end-to-end seconds (per-seed means)
	Access   stats.Summary // mean member→head acceptance seconds
}

// SweepResult is one protocol's λ series.
type SweepResult struct {
	Protocol ProtocolID
	Points   []SweepPoint
}

// CellOutcome holds the measurements of one (protocol, λ, seed)
// replication pair — the unit the sweep assembly functions aggregate
// and the payload the qlecd fleet moves between peers, so the fields
// serialize.
type CellOutcome struct {
	PDR      float64 `json:"pdr"`
	EnergyJ  float64 `json:"energyJ"`
	Latency  float64 `json:"latency"`
	Access   float64 `json:"access"`
	Lifespan float64 `json:"lifespan"`
}

// RunFig3 produces the data behind all three panels of Figure 3 for the
// given protocols: per λ and protocol, PDR and total energy from
// fixed-R runs and lifespan from death-line runs, each replicated over
// the configured seeds.
//
// Every (protocol, λ, seed) cell is an independent simulation with its
// own deterministic streams, so the sweep fans out through runner.Map;
// results are identical to a serial run regardless of scheduling
// (tested centrally in TestSweepsParallelMatchSerial). Cancelling ctx
// stops launching cells and returns ctx's error; every failed cell is
// reported, not just the first.
func (c Config) RunFig3(ctx context.Context, ids []ProtocolID) ([]SweepResult, error) {
	specs, err := c.Fig3Cells(ids)
	if err != nil {
		return nil, err
	}
	cells, err := c.runSpecs(ctx, specs)
	if err != nil {
		return nil, err
	}
	return AssembleFig3(ids, c.Lambdas, c.Seeds, cells)
}

// runSpecs fans a cell list out through the bounded runner; it is the
// in-process counterpart of the fleet's distributed cell execution, and
// both feed the same Assemble* functions.
func (c Config) runSpecs(ctx context.Context, specs []CellSpec) ([]CellOutcome, error) {
	return runner.Map(ctx, len(specs), runner.Options{Workers: c.Workers, Progress: c.Progress},
		func(ctx context.Context, i int) (CellOutcome, error) {
			s := specs[i]
			cell, err := s.Run(ctx)
			if err != nil {
				return CellOutcome{}, fmt.Errorf("%s λ=%v seed=%d: %w", s.Protocol, s.Lambda, s.Seed, err)
			}
			return cell, nil
		})
}

// runCell executes one replication pair (fixed-round + lifespan run).
// The configuration must already be validated (sweeps validate once up
// front; see run).
func (c Config) runCell(ctx context.Context, id ProtocolID, lambda float64, seed uint64) (CellOutcome, error) {
	res, err := c.run(ctx, id, lambda, seed, fixedRun, Hooks{})
	if err != nil {
		return CellOutcome{}, err
	}
	lres, err := c.run(ctx, id, lambda, seed, lifespanRun, Hooks{})
	if err != nil {
		return CellOutcome{}, err
	}
	ls := lres.Lifespan
	if ls == 0 { // survived the cap
		ls = lres.Rounds
	}
	return CellOutcome{
		PDR:      res.PDR(),
		EnergyJ:  float64(res.TotalEnergy),
		Latency:  res.Latency.Mean,
		Access:   res.Access.Mean,
		Lifespan: float64(ls),
	}, nil
}

// KSweepPoint is one cluster-count cell of the k-sensitivity sweep.
type KSweepPoint struct {
	K        int
	PDR      stats.Summary
	EnergyJ  stats.Summary
	Lifespan stats.Summary
}

// RunKSweep measures QLEC's sensitivity to the cluster count k at one
// traffic level — the experiment behind DESIGN.md §6.2's discussion:
// Theorem 1 puts k_opt ≈ 11 for the paper's deployment (not the
// reported 5), and delivery under load indeed peaks near the theorem's
// value because Q-learning rerouting needs alternative heads at
// comparable distance.
// Replications fan out through runner.Map — one job per (k, seed) cell,
// deterministic regardless of scheduling — and cancelling ctx stops the
// sweep with ctx's error.
func (c Config) RunKSweep(ctx context.Context, id ProtocolID, ks []int, lambda float64) ([]KSweepPoint, error) {
	specs, err := c.KSweepCells(id, ks, lambda)
	if err != nil {
		return nil, err
	}
	cells, err := c.runSpecs(ctx, specs)
	if err != nil {
		return nil, err
	}
	return AssembleKSweep(ks, c.Seeds, cells)
}

// NSweepPoint is one network-size cell of the scalability sweep.
type NSweepPoint struct {
	N             int
	K             int
	PDR           stats.Summary
	EnergyPerNode stats.Summary // Joules per node over the run
	Lifespan      stats.Summary
}

// RunNSweep measures a protocol's behaviour as the network grows at
// constant node density (the cube side scales with ∛N) with k scaled to
// keep the same nodes-per-cluster ratio — the scalability argument
// behind the paper's "support higher scalability" framing (§1) and the
// §5.3 jump from 100 to 2896 nodes.
// Replications fan out through runner.Map — one job per (N, seed) cell,
// deterministic regardless of scheduling — and cancelling ctx stops the
// sweep with ctx's error.
func (c Config) RunNSweep(ctx context.Context, id ProtocolID, ns []int, lambda float64) ([]NSweepPoint, error) {
	specs, err := c.NSweepCells(id, ns, lambda)
	if err != nil {
		return nil, err
	}
	cells, err := c.runSpecs(ctx, specs)
	if err != nil {
		return nil, err
	}
	return AssembleNSweep(ns, c.Seeds, specs, cells)
}

// Fig4Config parameterizes the large-scale dataset experiment (§5.3).
type Fig4Config struct {
	// Data, when non-nil, is used directly (e.g. the genuine WRI file
	// loaded via dataset.LoadWRICSV, or an x,y,z,energy CSV via
	// dataset.LoadCSV); Synth is ignored then.
	Data *dataset.Dataset
	// Dataset synthesis parameters; see dataset.DefaultSynthConfig.
	Synth dataset.SynthConfig
	// K is the cluster count; the paper derives k_opt = 272 for the
	// 2896-node set. Zero derives it from Theorem 1.
	K int
	// Rounds to simulate.
	Rounds int
	// Sim configuration (λ etc.).
	Sim sim.Config
	// Model holds radio constants.
	Model energy.Model
	// Seeds, when non-empty, replicates the experiment across these
	// seeds (dataset synthesis and protocol streams both reseed) and
	// summarizes the evenness statistics across replicates; the first
	// seed supplies the primary Field/Run/Net. Empty runs once at
	// Synth.Seed.
	Seeds []uint64
	// Workers bounds replicate parallelism (0 = CPUs, 1 = serial).
	Workers int
	// Progress, when non-nil, receives replicate completion updates.
	Progress runner.Progress
}

// PaperFig4Config mirrors §5.3.
func PaperFig4Config() Fig4Config {
	return Fig4Config{
		Synth:  dataset.DefaultSynthConfig(),
		K:      272,
		Rounds: 20,
		Sim:    sim.DefaultConfig(),
		Model:  energy.DefaultModel(),
	}
}

// Fig4Result is the large-scale experiment output.
type Fig4Result struct {
	// Field maps node positions to energy-consumption rates — the data
	// behind the paper's scatter map.
	Field stats.SpatialField
	// BinnedCV, Gini and MoranI quantify the paper's "evenly
	// distributed" claim (lower = more even; Moran ≈ 0 = no hot-spot
	// clustering). MoranI is NaN where it is undefined (a constant
	// field, or no node pair within the radius; see
	// stats.ErrMoranIUndefined).
	BinnedCV float64
	Gini     float64
	MoranI   float64
	// Run is the underlying simulation result.
	Run *metrics.Result
	// Net is the network after the run (positions, batteries).
	Net *network.Network
	// K actually used.
	K int
	// BinnedCVStats, GiniStats and MoranIStats summarize the evenness
	// statistics across the configured replicate seeds (N=1 without
	// Fig4Config.Seeds). MoranIStats counts only the replicates where
	// Moran's I is defined.
	BinnedCVStats stats.Summary
	GiniStats     stats.Summary
	MoranIStats   stats.Summary
}

// RunFig4 synthesizes the dataset, runs QLEC over it and computes the
// spatial statistics. With Fig4Config.Seeds set, the per-seed
// replicates fan out through runner.Map; the primary (first-seed)
// replicate supplies the Field/Run/Net payload and the *Stats fields
// summarize evenness across all replicates. Cancelling ctx stops the
// experiment at the next round boundary with ctx's error.
func RunFig4(ctx context.Context, cfg Fig4Config) (*Fig4Result, error) {
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("experiment: Fig4 Rounds must be positive")
	}
	seeds := cfg.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{cfg.Synth.Seed}
	}
	reps, err := runner.Map(ctx, len(seeds),
		runner.Options{Workers: cfg.Workers, Progress: cfg.Progress},
		func(ctx context.Context, i int) (*Fig4Result, error) {
			rep, err := runFig4Once(ctx, cfg, seeds[i])
			if err != nil {
				return nil, fmt.Errorf("seed=%d: %w", seeds[i], err)
			}
			return rep, nil
		})
	if err != nil {
		return nil, err
	}
	out := reps[0]
	cvs := make([]float64, len(reps))
	ginis := make([]float64, len(reps))
	var morans []float64
	for i, rep := range reps {
		cvs[i], ginis[i] = rep.BinnedCV, rep.Gini
		if !math.IsNaN(rep.MoranI) {
			morans = append(morans, rep.MoranI)
		}
	}
	out.BinnedCVStats = stats.Summarize(cvs)
	out.GiniStats = stats.Summarize(ginis)
	out.MoranIStats = stats.Summarize(morans)
	return out, nil
}

// runFig4Once executes one replicate of the large-scale experiment at
// the given seed, which drives dataset synthesis (when no explicit Data
// is set) and the protocol streams.
func runFig4Once(ctx context.Context, cfg Fig4Config, seed uint64) (*Fig4Result, error) {
	ds := cfg.Data
	if ds == nil {
		synth := cfg.Synth
		synth.Seed = seed
		var err error
		ds, err = dataset.Synthesize(synth)
		if err != nil {
			return nil, err
		}
	} else if err := ds.Validate(); err != nil {
		return nil, err
	}
	w, err := network.FromPositions(ds.Positions, ds.Energies, ds.Box, ds.BS)
	if err != nil {
		return nil, err
	}
	k := cfg.K
	if k == 0 {
		k = core.AutoK(w, cfg.Model)
	}
	qc := core.DefaultConfig(cfg.Rounds)
	qc.K = k
	qc.Bits = cfg.Sim.Bits
	qc.Seed = seed
	proto, err := core.New(w, cfg.Model, qc)
	if err != nil {
		return nil, err
	}
	engine, err := sim.NewEngine(w, proto, cfg.Model, cfg.Sim)
	if err != nil {
		return nil, err
	}
	res, err := engine.Run(ctx, cfg.Rounds)
	if err != nil {
		return nil, err
	}
	field := stats.SpatialField{Points: w.Positions(), Values: res.ConsumptionRates}
	out := &Fig4Result{Field: field, Run: res, Net: w, K: k}
	if out.BinnedCV, err = field.BinnedCV(w.Box, 6); err != nil {
		return nil, err
	}
	if out.Gini, err = stats.GiniCoefficient(res.ConsumptionRates); err != nil {
		return nil, err
	}
	// Moran's I with a neighbourhood of ~2 coverage radii.
	radius := w.Box.Size().X / 8
	if out.MoranI, err = field.MoranI(radius); errors.Is(err, stats.ErrMoranIUndefined) {
		out.MoranI = math.NaN()
	} else if err != nil {
		return nil, err
	}
	return out, nil
}
