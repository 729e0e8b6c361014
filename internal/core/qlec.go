// Package core implements QLEC itself — the paper's two-phase algorithm
// (Algorithm 1) — as a cluster.Protocol runnable on the simulation
// engine:
//
//   - Cluster Head Selection Phase: the improved DEEC selector
//     (internal/deec) picks k heads per round (Algorithms 2–3), with k
//     defaulting to Theorem 1's k_opt.
//   - Data Transmission Phase: members pick a head per packet with
//     Q-learning (internal/qlearn, Algorithm 4); heads hold fused data
//     and burst it to the BS at round end, then refresh their V values
//     (Algorithm 1 line 15).
//
// Ablation switches expose the paper's design choices individually: the
// Eq. (4) energy floor, the Algorithm 3 redundancy reduction, and the
// Q-learning router itself (off → members use nearest-head assignment,
// i.e. "improved DEEC without learning").
package core

import (
	"fmt"
	"math"

	"qlec/internal/cluster"
	"qlec/internal/deec"
	"qlec/internal/energy"
	"qlec/internal/network"
	"qlec/internal/qlearn"
	"qlec/internal/rng"
)

// Config parameterizes a QLEC instance.
type Config struct {
	// K is the cluster count per round; 0 derives k_opt from Theorem 1
	// using the deployment's measured mean node→BS distance.
	K int
	// TotalRounds is the planned lifespan R used by Eq. (2) and Eq. (4).
	TotalRounds int
	// DeathLine excludes depleted nodes from head duty.
	DeathLine energy.Joules
	// Bits is the packet size L used inside Q-learning rewards (Eq. 18).
	Bits int
	// QParams are the Q-learning constants; zero value means
	// qlearn.DefaultParams.
	QParams qlearn.Params
	// Seed drives the DEEC lottery.
	Seed uint64

	// DisableEnergyFloor switches off the Eq. (4) improvement (ablation).
	DisableEnergyFloor bool
	// DisableRedundancyReduction switches off Algorithm 3 (ablation).
	DisableRedundancyReduction bool
	// DisableQLearning replaces Algorithm 4 with nearest-head routing
	// (ablation: improved DEEC alone).
	DisableQLearning bool
	// PlainDEEC runs the classic DEEC protocol (Qing et al. 2006) as a
	// baseline: lottery-only head selection (no floor, no redundancy
	// reduction, no top-up — the per-round head count is random) with
	// nearest-head routing. It overrides the other switches.
	PlainDEEC bool
}

// DefaultConfig returns the paper's §5.1 QLEC setup for the given
// planned round count.
func DefaultConfig(totalRounds int) Config {
	return Config{
		TotalRounds: totalRounds,
		Bits:        4000,
		QParams:     qlearn.DefaultParams(),
		Seed:        1,
	}
}

// AutoK computes Theorem 1's k_opt for a deployed network, rounded to at
// least 1.
func AutoK(w *network.Network, model energy.Model) int {
	side := w.Box.Size().X
	d := w.MeanDistToBS()
	if d <= 0 {
		return 1
	}
	k := int(math.Round(model.OptimalClusterCount(w.N(), side, d)))
	if k < 1 {
		k = 1
	}
	if k > w.N() {
		k = w.N()
	}
	return k
}

// QLEC is the paper's protocol bound to one network.
type QLEC struct {
	cfg     Config
	net     *network.Network
	sel     *deec.Selector
	learner *qlearn.Learner

	heads  []int
	isHead []bool
	// nearest holds the nearest-head assignment when Q-learning is
	// disabled (ablation mode).
	nearest cluster.Assignment
}

// AutoR estimates the planned lifespan R for Eq. (2)'s energy schedule
// from the energy model, per the paper's reference [7]: total network
// energy over the expected per-round dissipation at cluster count k.
func AutoR(w *network.Network, model energy.Model, bits, k int) int {
	side := w.Box.Size().X
	d := w.MeanDistToBS()
	if d <= 0 || k <= 0 {
		return 1
	}
	return model.EstimatedLifespanRounds(w.InitialTotalEnergy(), bits, w.N(), k, side, d)
}

// New builds a QLEC protocol over the network. TotalRounds = 0 derives
// R from the energy model via AutoR; K = 0 derives k_opt via AutoK.
func New(w *network.Network, model energy.Model, cfg Config) (*QLEC, error) {
	if cfg.TotalRounds < 0 {
		return nil, fmt.Errorf("core: TotalRounds must be non-negative, got %d", cfg.TotalRounds)
	}
	if cfg.Bits <= 0 {
		return nil, fmt.Errorf("core: Bits must be positive, got %d", cfg.Bits)
	}
	if cfg.K == 0 {
		cfg.K = AutoK(w, model)
	}
	if cfg.TotalRounds == 0 {
		cfg.TotalRounds = AutoR(w, model, cfg.Bits, cfg.K)
	}
	if cfg.K < 0 || cfg.K > w.N() {
		return nil, fmt.Errorf("core: K=%d outside [1,%d]", cfg.K, w.N())
	}
	if cfg.QParams == (qlearn.Params{}) {
		cfg.QParams = qlearn.DefaultParams()
	}
	dcfg := deec.Config{
		K:                cfg.K,
		TotalRounds:      cfg.TotalRounds,
		DeathLine:        cfg.DeathLine,
		EnergyFloor:      !cfg.DisableEnergyFloor,
		ReduceRedundancy: !cfg.DisableRedundancyReduction,
		TopUp:            true,
	}
	if cfg.PlainDEEC {
		dcfg = deec.PlainConfig(cfg.K, cfg.TotalRounds, cfg.DeathLine)
		cfg.DisableQLearning = true
	}
	sel, err := deec.NewSelector(w, dcfg, rng.NewNamed(cfg.Seed, "qlec/deec"))
	if err != nil {
		return nil, err
	}
	learner, err := qlearn.NewLearner(w, model, cfg.Bits, cfg.QParams)
	if err != nil {
		return nil, err
	}
	return &QLEC{
		cfg:     cfg,
		net:     w,
		sel:     sel,
		learner: learner,
		isHead:  make([]bool, w.N()),
	}, nil
}

// Name implements cluster.Protocol.
func (q *QLEC) Name() string {
	switch {
	case q.cfg.PlainDEEC:
		return "DEEC-plain"
	case q.cfg.DisableQLearning:
		return "DEEC-nearest"
	default:
		return "QLEC"
	}
}

// K returns the configured cluster count.
func (q *QLEC) K() int { return q.cfg.K }

// Learner exposes the Q-learning state for convergence benchmarks
// (the X of O(kX)).
func (q *QLEC) Learner() *qlearn.Learner { return q.learner }

// StartRound implements cluster.Protocol: the Cluster Head Selection
// Phase.
func (q *QLEC) StartRound(round int) []int {
	q.heads = q.sel.Select(round)
	for i := range q.isHead {
		q.isHead[i] = false
	}
	for _, h := range q.heads {
		q.isHead[h] = true
	}
	if q.cfg.DisableQLearning {
		q.nearest = cluster.AssignNearest(q.net, q.heads)
	} else {
		// Arm the learner's candidate lists for this head set, and build
		// those of the members above the death line, the round's
		// senders. StartRound runs after any inter-round movement, so
		// positions are frozen for the epoch's lifetime.
		q.learner.BeginEpoch(q.heads, q.cfg.DeathLine)
	}
	return q.heads
}

// NextHop implements cluster.Protocol: Algorithm 4 for members; heads
// burst straight to the BS.
func (q *QLEC) NextHop(node int) int {
	if q.isHead[node] {
		return network.BSID
	}
	if q.cfg.DisableQLearning {
		return q.nearest.Head[node]
	}
	return q.learner.Decide(node, q.heads)
}

// InvalidateGeometry implements cluster.GeometryInvalidator: the engine
// moved nodes, so the link costs in the learner's candidate lists are
// stale.
func (q *QLEC) InvalidateGeometry() {
	if !q.cfg.DisableQLearning {
		q.learner.InvalidateGeometry()
	}
}

// OnOutcome implements cluster.Protocol: ACK feedback into the link
// estimator.
func (q *QLEC) OnOutcome(node, target int, success bool) {
	if q.cfg.DisableQLearning {
		return
	}
	q.learner.Observe(node, target, success)
}

// EndRound implements cluster.Protocol: heads refresh their V values
// (Algorithm 1 line 15).
func (q *QLEC) EndRound(round int) {
	if q.cfg.DisableQLearning {
		return
	}
	for _, h := range q.heads {
		q.learner.UpdateHeadValue(h)
	}
}

// RelayMode implements cluster.Protocol.
func (q *QLEC) RelayMode() cluster.RelayMode { return cluster.HoldAndBurst }

// QLearningStats implements sim.QLearningStats: the mean V value and
// effective exploration rate, for per-round telemetry. ok is false in
// the DEEC ablation modes, where no Q-table exists to report.
func (q *QLEC) QLearningStats() (meanQ, epsilon float64, ok bool) {
	if q.cfg.DisableQLearning {
		return 0, 0, false
	}
	return q.learner.MeanV(), q.cfg.QParams.Epsilon, true
}
