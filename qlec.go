// Package qlec is a from-scratch Go reproduction of "QLEC: A
// Machine-Learning-Based Energy-Efficient Clustering Algorithm to Prolong
// Network Lifespan for IoT in High-Dimensional Space" (Li, Huang, Gao,
// Wu, Chen — ICPP 2019).
//
// The package is the public facade over the full reproduction stack:
//
//   - the QLEC protocol itself (improved-DEEC cluster-head selection plus
//     Q-learning packet routing),
//   - the baselines it is evaluated against (an FCM-based hierarchical
//     scheme, classic k-means, classic LEACH),
//   - a discrete-event 3-D wireless-sensor-network simulator with the
//     first-order radio energy model, bounded head queues, link loss,
//     ACKs and retries,
//   - and the experiment harness regenerating every figure in the
//     paper's evaluation.
//
// There is one entry point per operation, and each takes a context for
// timeouts and Ctrl-C cancellation (pass context.Background() for
// none).
//
// # Quick start
//
//	ctx := context.Background()
//	res, err := qlec.RunContext(ctx, qlec.DefaultScenario())
//	if err != nil { ... }
//	fmt.Printf("PDR %.3f, energy %.2f J\n", res.PDR(), float64(res.TotalEnergy))
//
// Compare protocols under the paper's settings:
//
//	table, err := qlec.CompareContext(ctx, qlec.DefaultScenario(), qlec.Protocols())
//
// An observer streams live progress from a single run:
//
//	s := qlec.DefaultScenario()
//	s.Hooks.Observer = func(snap sim.RoundSnapshot) {
//		fmt.Fprintf(os.Stderr, "\rround %d, %d alive", snap.Round, snap.Alive)
//	}
//	res, err := qlec.RunContext(ctx, s)
//
// Regenerate the paper's figures programmatically through
// ReproduceFigure3Context and ReproduceFigure4Context, or from the
// command line with cmd/qlecfig.
package qlec

import (
	"context"
	"fmt"

	"qlec/internal/dataset"
	"qlec/internal/energy"
	"qlec/internal/experiment"
	"qlec/internal/geom"
	"qlec/internal/metrics"
	"qlec/internal/plot"
	"qlec/internal/stats"
)

// Protocol identifies one of the implemented protocols.
type Protocol = experiment.ProtocolID

// The named protocols: QLEC, the paper's baselines and the ablation
// variants. Any other
// registered protocol (the related-work competitors, aliases) is a
// Protocol by its id string; `qlecsim -list-protocols` prints the roster.
const (
	QLEC        = experiment.QLEC
	FCM         = experiment.FCM
	KMeans      = experiment.KMeans
	LEACH       = experiment.LEACH
	DEECNearest = experiment.DEECNearest
	QLECNoFloor = experiment.QLECNoFloor
	QLECNoRR    = experiment.QLECNoRR
)

// Protocols returns the three protocols of the paper's Figure 3.
func Protocols() []Protocol { return experiment.PaperProtocols() }

// Scenario is a runnable experiment configuration. The zero value is not
// valid; start from DefaultScenario.
type Scenario struct {
	// Config is the underlying experiment configuration (deployment,
	// sweep, seeds, radio constants). See experiment.Config.
	Config experiment.Config
	// Protocol to run for single-run entry points.
	Protocol Protocol
	// Lambda is the traffic intensity (mean packet inter-arrival seconds
	// per node) for single runs.
	Lambda float64
	// Seed for single runs.
	Seed uint64
	// MeasureLifespan switches single runs to the death-line/stop-on-
	// death methodology of Figure 3(c).
	MeasureLifespan bool
	// Hooks observe single runs (per-round Observer, packet Tracer,
	// Audit flight recorder); they never change the result. Sweeps
	// (CompareContext, ReproduceFigure3Context) run without them.
	Hooks experiment.Hooks
}

// DefaultScenario returns the paper's §5.1 setup with QLEC selected.
func DefaultScenario() Scenario {
	return Scenario{
		Config:   experiment.PaperConfig(),
		Protocol: QLEC,
		Lambda:   4,
		Seed:     1,
	}
}

// Result re-exports the simulation result type.
type Result = metrics.Result

// RunContext executes a single simulation for the scenario's protocol.
// Cancelling ctx stops the simulation at the next round boundary and
// returns the partial result accumulated so far alongside ctx's error.
// Set Scenario.Hooks.Observer for per-round progress.
func RunContext(ctx context.Context, s Scenario) (*Result, error) {
	return s.Config.RunOneWith(ctx, s.Protocol, s.Lambda, s.Seed, s.MeasureLifespan, s.Hooks)
}

// ComparisonRow is one protocol's aggregate under CompareContext.
type ComparisonRow struct {
	Protocol Protocol
	PDR      stats.Summary
	EnergyJ  stats.Summary
	Lifespan stats.Summary
	// Access is member→head acceptance latency, the cross-protocol-
	// comparable component of delivery latency.
	Access stats.Summary
}

// CompareContext runs every listed protocol at the scenario's λ across
// the configured seeds and returns per-protocol aggregates (fixed-round
// runs for PDR/energy/latency, death-line runs for lifespan). The
// per-cell runs fan out through the bounded runner
// (Scenario.Config.Workers, Progress), and a cancelled ctx stops
// launching cells and returns promptly with ctx's error.
func CompareContext(ctx context.Context, s Scenario, protocols []Protocol) ([]ComparisonRow, error) {
	if len(protocols) == 0 {
		return nil, fmt.Errorf("qlec: no protocols to compare")
	}
	cfg := s.Config
	cfg.Lambdas = []float64{s.Lambda}
	sweep, err := cfg.RunFig3(ctx, protocols)
	if err != nil {
		return nil, err
	}
	rows := make([]ComparisonRow, len(sweep))
	for i, sr := range sweep {
		p := sr.Points[0]
		rows[i] = ComparisonRow{
			Protocol: sr.Protocol,
			PDR:      p.PDR,
			EnergyJ:  p.EnergyJ,
			Lifespan: p.Lifespan,
			Access:   p.Access,
		}
	}
	return rows, nil
}

// Figure3 bundles the three panels of the paper's Figure 3 (plus the
// latency series the paper claims but does not plot).
type Figure3 struct {
	Sweep   []experiment.SweepResult
	PDR     *plot.Chart
	Energy  *plot.Chart
	Life    *plot.Chart
	Latency *plot.Chart
}

// ReproduceFigure3Context runs the full λ sweep for the given protocols
// (nil means the paper's three) and assembles the panels, with
// cancellation and, via cfg.Workers/cfg.Progress, bounded parallelism
// and sweep progress.
func ReproduceFigure3Context(ctx context.Context, cfg experiment.Config, protocols []Protocol) (*Figure3, error) {
	if protocols == nil {
		protocols = Protocols()
	}
	sweep, err := cfg.RunFig3(ctx, protocols)
	if err != nil {
		return nil, err
	}
	f := &Figure3{Sweep: sweep}
	if f.PDR, err = experiment.Fig3aChart(sweep); err != nil {
		return nil, err
	}
	if f.Energy, err = experiment.Fig3bChart(sweep); err != nil {
		return nil, err
	}
	if f.Life, err = experiment.Fig3cChart(sweep); err != nil {
		return nil, err
	}
	if f.Latency, err = experiment.LatencyChart(sweep); err != nil {
		return nil, err
	}
	return f, nil
}

// ReproduceFigure4Context runs the large-scale dataset experiment
// (§5.3) with cancellation; with cfg.Seeds set the replicates run in
// parallel through the bounded runner.
func ReproduceFigure4Context(ctx context.Context, cfg experiment.Fig4Config) (*experiment.Fig4Result, error) {
	return experiment.RunFig4(ctx, cfg)
}

// Vec3 is a point in 3-D space (meters).
type Vec3 = geom.Vec3

// Topology is an explicit deployment: node positions with per-node
// initial energies, a bounding box and a base-station position. Use it
// for non-uniform scenarios — underwater columns, terrain-following
// fields, real datasets — via Scenario.Config.Topology.
type Topology = dataset.Dataset

// NewTopology builds a Topology from parallel position/energy slices.
// The bounding box is grown to contain every node and the base station.
func NewTopology(positions []Vec3, energiesJ []float64, bs Vec3) (*Topology, error) {
	if len(positions) == 0 {
		return nil, fmt.Errorf("qlec: empty topology")
	}
	if len(positions) != len(energiesJ) {
		return nil, fmt.Errorf("qlec: %d positions but %d energies", len(positions), len(energiesJ))
	}
	lo, hi := bs, bs
	grow := func(p Vec3) {
		if p.X < lo.X {
			lo.X = p.X
		}
		if p.Y < lo.Y {
			lo.Y = p.Y
		}
		if p.Z < lo.Z {
			lo.Z = p.Z
		}
		if p.X > hi.X {
			hi.X = p.X
		}
		if p.Y > hi.Y {
			hi.Y = p.Y
		}
		if p.Z > hi.Z {
			hi.Z = p.Z
		}
	}
	for _, p := range positions {
		grow(p)
	}
	// Pad so the box has positive extent on every axis even for planar
	// deployments.
	const pad = 1.0
	lo = lo.Sub(Vec3{X: pad, Y: pad, Z: pad})
	hi = hi.Add(Vec3{X: pad, Y: pad, Z: pad})
	en := make([]energy.Joules, len(energiesJ))
	for i, e := range energiesJ {
		if e <= 0 {
			return nil, fmt.Errorf("qlec: node %d has non-positive energy %v", i, e)
		}
		en[i] = energy.Joules(e)
	}
	t := &Topology{
		Positions: append([]Vec3(nil), positions...),
		Energies:  en,
		Box:       geom.AABB{Min: lo, Max: hi},
		BS:        bs,
	}
	return t, t.Validate()
}
