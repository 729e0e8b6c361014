// Package tdeec implements T-DEEC, a threshold-based heterogeneous DEEC
// variant (Saini & Sharma 2010; surveyed against E-DEEC/DDEEC in arXiv
// 1408.4112): nodes provisioned in initial-energy tiers — normal,
// advanced, super — elect heads with a probability weighted by their
// tier's share of the network's initial energy, and a residual-energy
// threshold gates candidacy so nearly-average nodes do not burn head
// duty late in life.
//
// Per round r, for node b_i with initial energy E0_i:
//
//	w_i  = E0_i / Ē0                      (tier weight; Ē0 = mean initial)
//	p_i  = p_opt · w_i · E_i(r) / Ē(r)    (heterogeneous DEEC probability)
//	T(b_i) as in LEACH/DEEC (Eq. 3), gated by E_i(r) ≥ θ·Ē(r)
//
// where Ē(r) is DEEC's a-priori average-energy estimate (Eq. 2) and θ is
// the residual threshold fraction (default 0.7). Head deficits are
// topped up richest-first, the E-DEECP fallback: when the lottery
// under-elects, the highest-residual nodes serve.
//
// The protocol is homogeneous-safe: with a single tier every w_i = 1 and
// it degrades to threshold-gated DEEC.
package tdeec

import (
	"fmt"
	"math"
	"slices"

	"qlec/internal/cluster"
	"qlec/internal/energy"
	"qlec/internal/network"
	"qlec/internal/rng"
)

// Config parameterizes a T-DEEC instance.
type Config struct {
	// K is the target cluster count per round.
	K int
	// TotalRounds is R, the planned lifespan driving the Eq. (2)
	// average-energy estimate.
	TotalRounds int
	// DeathLine excludes depleted nodes.
	DeathLine energy.Joules
	// ThresholdFrac is θ: a node is head-eligible only while its
	// residual energy is at least θ·Ē(r). Zero means DefaultThreshold.
	ThresholdFrac float64
	// Seed drives the election lottery.
	Seed uint64
}

// DefaultThreshold is the θ used when Config.ThresholdFrac is zero.
const DefaultThreshold = 0.7

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.K <= 0 {
		return fmt.Errorf("tdeec: K must be positive, got %d", c.K)
	}
	if c.TotalRounds <= 0 {
		return fmt.Errorf("tdeec: TotalRounds must be positive, got %d", c.TotalRounds)
	}
	if c.DeathLine < 0 {
		return fmt.Errorf("tdeec: DeathLine must be non-negative, got %v", c.DeathLine)
	}
	if c.ThresholdFrac < 0 || c.ThresholdFrac >= 1 {
		return fmt.Errorf("tdeec: ThresholdFrac %v outside [0,1)", c.ThresholdFrac)
	}
	return nil
}

// Protocol is T-DEEC bound to one network.
type Protocol struct {
	cfg Config
	net *network.Network
	rnd *rng.Stream
	// weights holds w_i = E0_i/Ē0 per node, fixed at construction (tiers
	// are a provisioning property, not a runtime one).
	weights []float64

	heads   []int
	isHead  []bool
	nearest cluster.Assignment
}

// New builds a T-DEEC protocol over the network.
func New(w *network.Network, cfg Config) (*Protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.K > w.N() {
		return nil, fmt.Errorf("tdeec: K=%d exceeds N=%d", cfg.K, w.N())
	}
	if cfg.ThresholdFrac == 0 {
		cfg.ThresholdFrac = DefaultThreshold
	}
	meanInit := float64(w.InitialTotalEnergy()) / float64(w.N())
	weights := make([]float64, w.N())
	for i, n := range w.Nodes {
		weights[i] = float64(n.Battery.Initial()) / meanInit
	}
	return &Protocol{
		cfg:     cfg,
		net:     w,
		rnd:     rng.NewNamed(cfg.Seed, "tdeec/select"),
		weights: weights,
		isHead:  make([]bool, w.N()),
	}, nil
}

// Name implements cluster.Protocol.
func (p *Protocol) Name() string { return "T-DEEC" }

const pMin = 1e-4

// probability returns the tier-weighted p_i, clamped into [pMin, 0.999].
func (p *Protocol) probability(n *network.Node, round int) float64 {
	mean := float64(p.net.EstimatedMeanEnergy(round, p.cfg.TotalRounds))
	popt := float64(p.cfg.K) / float64(p.net.N())
	pi := popt * p.weights[n.ID]
	if mean > 0 {
		pi *= float64(n.Battery.Residual()) / mean
	}
	if pi < pMin {
		pi = pMin
	}
	if pi > 0.999 {
		pi = 0.999
	}
	return pi
}

// threshold evaluates the LEACH/DEEC rotation threshold (Eq. 3).
func threshold(pi float64, round int) float64 {
	epoch := int(math.Floor(1 / pi))
	if epoch < 1 {
		epoch = 1
	}
	den := 1 - pi*float64(round%epoch)
	if den <= 0 {
		return 1
	}
	return pi / den
}

// StartRound implements cluster.Protocol: the tiered election.
func (p *Protocol) StartRound(round int) []int {
	heads := p.heads[:0]
	mean := float64(p.net.EstimatedMeanEnergy(round, p.cfg.TotalRounds))
	gate := energy.Joules(p.cfg.ThresholdFrac * mean)
	type candidate struct {
		id       int
		residual energy.Joules
	}
	var reserve []candidate
	for _, n := range p.net.Nodes {
		if !n.Alive(p.cfg.DeathLine) {
			continue
		}
		reserve = append(reserve, candidate{n.ID, n.Battery.Residual()})
		// θ-gate: below θ·Ē(r) a node sits the lottery out (it can still
		// be drafted by the top-up fallback when the round under-elects).
		if n.Battery.Residual() < gate {
			continue
		}
		pi := p.probability(n, round)
		epoch := int(math.Floor(1 / pi))
		if epoch < 1 {
			epoch = 1
		}
		if n.LastCHRound >= 0 && round-n.LastCHRound < epoch {
			continue
		}
		if p.rnd.Float64() < threshold(pi, round) {
			heads = append(heads, n.ID)
		}
	}
	// Pin the count at K: trim richest-first when over; top up from the
	// alive pool richest-first when under (the E-DEECP fallback). The
	// shuffles make equal-residual ties uniform yet seed-reproducible.
	byResidualDesc := func(a, b candidate) int {
		switch {
		case a.residual > b.residual:
			return -1
		case a.residual < b.residual:
			return 1
		}
		return 0
	}
	if len(heads) > p.cfg.K {
		p.rnd.Shuffle(len(heads), func(i, j int) { heads[i], heads[j] = heads[j], heads[i] })
		slices.SortStableFunc(heads, func(a, b int) int {
			return byResidualDesc(
				candidate{a, p.net.Nodes[a].Battery.Residual()},
				candidate{b, p.net.Nodes[b].Battery.Residual()})
		})
		heads = heads[:p.cfg.K]
	}
	if len(heads) < p.cfg.K {
		inHeads := make(map[int]bool, len(heads))
		for _, h := range heads {
			inHeads[h] = true
		}
		p.rnd.Shuffle(len(reserve), func(i, j int) { reserve[i], reserve[j] = reserve[j], reserve[i] })
		slices.SortStableFunc(reserve, byResidualDesc)
		for _, c := range reserve {
			if len(heads) >= p.cfg.K {
				break
			}
			if !inHeads[c.id] {
				heads = append(heads, c.id)
				inHeads[c.id] = true
			}
		}
	}
	heads = cluster.SortedCopy(heads)
	for i := range p.isHead {
		p.isHead[i] = false
	}
	for _, h := range heads {
		p.isHead[h] = true
		p.net.Nodes[h].LastCHRound = round
	}
	p.heads = heads
	p.nearest = cluster.AssignNearest(p.net, heads)
	return heads
}

// NextHop implements cluster.Protocol: heads burst to the BS, members
// use nearest-head assignment.
func (p *Protocol) NextHop(node int) int {
	if p.isHead[node] {
		return network.BSID
	}
	return p.nearest.Head[node]
}

// OnOutcome implements cluster.Protocol: T-DEEC does not learn.
func (p *Protocol) OnOutcome(node, target int, success bool) {}

// EndRound implements cluster.Protocol.
func (p *Protocol) EndRound(round int) {}

// RelayMode implements cluster.Protocol.
func (p *Protocol) RelayMode() cluster.RelayMode { return cluster.HoldAndBurst }
