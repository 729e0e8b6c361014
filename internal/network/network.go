// Package network models the wireless sensor network of the QLEC paper:
// N battery-operated nodes in an M×M×M cube plus a mains-powered base
// station (sink). It owns node placement, energy state queries, and the
// alive/dead bookkeeping against the energy death line (§5.1).
package network

import (
	"fmt"
	"math"

	"qlec/internal/energy"
	"qlec/internal/geom"
	"qlec/internal/rng"
)

// BSID is the pseudo-identifier of the base station in routing tables.
// Node identifiers are their non-negative slice indices; the BS is not a
// node (it is mains-powered and never clustered), so it gets a sentinel.
const BSID = -1

// Node is one sensor.
type Node struct {
	ID      int
	Pos     geom.Vec3
	Battery *energy.Battery

	// LastCHRound is the most recent round in which the node served as a
	// cluster head, or -1 if never. DEEC's rotating-epoch eligibility
	// check (Alg. 2 line 4) reads this.
	LastCHRound int
}

// Alive reports whether the node's residual energy is above the death
// line.
func (n *Node) Alive(deathLine energy.Joules) bool {
	return !n.Battery.Depleted(deathLine)
}

// Network is the deployed sensor field.
type Network struct {
	Nodes []*Node
	BS    geom.Vec3
	Box   geom.AABB

	initialTotal energy.Joules
}

// Deployment describes how to build a Network.
type Deployment struct {
	// N is the node count. Required.
	N int
	// Side is the cube edge length M in meters. Required.
	Side float64
	// InitialEnergy per normal node in Joules. Required.
	InitialEnergy energy.Joules
	// BS optionally overrides the base-station position; nil means the
	// cube center (the paper's Fig. 1).
	BS *geom.Vec3
	// AdvancedFraction is the share of nodes provisioned as "advanced"
	// nodes carrying extra energy — the two-tier heterogeneous setting
	// DEEC was designed for (Qing et al. 2006 use m·N advanced nodes
	// with (1+a)·E0). Zero means a homogeneous network (§5.1's setup).
	AdvancedFraction float64
	// AdvancedFactor is the extra-energy multiplier a: advanced nodes
	// start with (1+a)·InitialEnergy. Ignored when AdvancedFraction is
	// zero.
	AdvancedFactor float64
	// SuperFraction is the share of nodes provisioned as "super" nodes —
	// the third tier of T-DEEC's heterogeneous setting (arXiv 1408.4112:
	// m₀·N super nodes with (1+b)·E0 on top of the advanced tier). The
	// advanced and super tiers are disjoint; their fractions must sum to
	// at most 1.
	SuperFraction float64
	// SuperFactor is the super tier's extra-energy multiplier b: super
	// nodes start with (1+b)·InitialEnergy. Ignored when SuperFraction
	// is zero.
	SuperFactor float64
}

// Validate checks the deployment parameters.
func (d Deployment) Validate() error {
	if d.N <= 0 {
		return fmt.Errorf("network: node count must be positive, got %d", d.N)
	}
	if !(d.Side > 0) || math.IsInf(d.Side, 0) {
		return fmt.Errorf("network: cube side must be positive and finite, got %v", d.Side)
	}
	if !energy.ValidCharge(d.InitialEnergy) {
		return fmt.Errorf("network: initial energy must be finite and positive, got %v", d.InitialEnergy)
	}
	if d.AdvancedFraction < 0 || d.AdvancedFraction > 1 {
		return fmt.Errorf("network: advanced fraction %v outside [0,1]", d.AdvancedFraction)
	}
	if d.AdvancedFraction > 0 && d.AdvancedFactor <= 0 {
		return fmt.Errorf("network: advanced factor must be positive with advanced nodes, got %v", d.AdvancedFactor)
	}
	if d.SuperFraction < 0 || d.SuperFraction > 1 {
		return fmt.Errorf("network: super fraction %v outside [0,1]", d.SuperFraction)
	}
	if d.SuperFraction > 0 && d.SuperFactor <= 0 {
		return fmt.Errorf("network: super factor must be positive with super nodes, got %v", d.SuperFactor)
	}
	if d.AdvancedFraction+d.SuperFraction > 1 {
		return fmt.Errorf("network: advanced+super fractions %v exceed 1",
			d.AdvancedFraction+d.SuperFraction)
	}
	return nil
}

// Deploy places N nodes uniformly at random in the cube, drawing
// positions (and the advanced-node subset, when configured) from r.
func Deploy(d Deployment, r *rng.Stream) (*Network, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	box := geom.Cube(d.Side)
	advanced := make([]bool, d.N)
	super := make([]bool, d.N)
	if d.AdvancedFraction > 0 || d.SuperFraction > 0 {
		// One permutation assigns both tiers: the advanced tier takes the
		// prefix (exactly as the two-tier code always did, so existing
		// seeds reproduce byte-identically) and the super tier the next
		// segment, keeping the tiers disjoint.
		countAdv := int(math.Round(d.AdvancedFraction * float64(d.N)))
		countSuper := int(math.Round(d.SuperFraction * float64(d.N)))
		if countAdv+countSuper > d.N {
			countSuper = d.N - countAdv
		}
		perm := r.Perm(d.N)
		for _, idx := range perm[:countAdv] {
			advanced[idx] = true
		}
		for _, idx := range perm[countAdv : countAdv+countSuper] {
			super[idx] = true
		}
	}
	nodes := make([]*Node, d.N)
	for i := range nodes {
		e := d.InitialEnergy
		switch {
		case super[i]:
			e = energy.Joules(float64(e) * (1 + d.SuperFactor))
		case advanced[i]:
			e = energy.Joules(float64(e) * (1 + d.AdvancedFactor))
		}
		nodes[i] = &Node{
			ID:          i,
			Pos:         box.SampleUniform(r),
			Battery:     energy.NewBattery(e),
			LastCHRound: -1,
		}
	}
	bs := box.Center()
	if d.BS != nil {
		bs = *d.BS
	}
	return newNetwork(nodes, bs, box), nil
}

// FromPositions builds a network from explicit node positions and
// per-node initial energies (the large-scale dataset path, §5.3).
// energies must have the same length as positions.
func FromPositions(positions []geom.Vec3, energies []energy.Joules, box geom.AABB, bs geom.Vec3) (*Network, error) {
	if len(positions) == 0 {
		return nil, fmt.Errorf("network: no positions given")
	}
	if len(positions) != len(energies) {
		return nil, fmt.Errorf("network: %d positions but %d energies", len(positions), len(energies))
	}
	if err := box.Validate(); err != nil {
		return nil, err
	}
	nodes := make([]*Node, len(positions))
	for i, p := range positions {
		if !p.IsFinite() {
			return nil, fmt.Errorf("network: position %d not finite: %v", i, p)
		}
		if !energy.ValidCharge(energies[i]) {
			return nil, fmt.Errorf("network: energy %d not finite and positive: %v", i, energies[i])
		}
		nodes[i] = &Node{
			ID:          i,
			Pos:         p,
			Battery:     energy.NewBattery(energies[i]),
			LastCHRound: -1,
		}
	}
	return newNetwork(nodes, bs, box), nil
}

func newNetwork(nodes []*Node, bs geom.Vec3, box geom.AABB) *Network {
	var total energy.Joules
	for _, n := range nodes {
		total += n.Battery.Initial()
	}
	return &Network{Nodes: nodes, BS: bs, Box: box, initialTotal: total}
}

// N returns the node count.
func (w *Network) N() int { return len(w.Nodes) }

// InitialTotalEnergy returns E_initial of Eq. (2): the summed initial
// charge of every node.
func (w *Network) InitialTotalEnergy() energy.Joules { return w.initialTotal }

// TotalResidual returns the current summed residual energy.
func (w *Network) TotalResidual() energy.Joules {
	var total energy.Joules
	for _, n := range w.Nodes {
		total += n.Battery.Residual()
	}
	return total
}

// TotalConsumed returns the summed energy drawn so far — the quantity on
// the y-axis of Figure 3(b).
func (w *Network) TotalConsumed() energy.Joules {
	var total energy.Joules
	for _, n := range w.Nodes {
		total += n.Battery.Consumed()
	}
	return total
}

// EstimatedMeanEnergy evaluates the paper's Eq. (2): the a-priori
// estimate of the per-node average energy at round r of a planned
// R-round run,
//
//	Ē(r) = (1/N)·E_initial·(1 − r/R).
//
// DEEC uses this estimate instead of gossiping true residual energies.
func (w *Network) EstimatedMeanEnergy(round, totalRounds int) energy.Joules {
	if totalRounds <= 0 {
		panic("network: totalRounds must be positive")
	}
	frac := 1 - float64(round)/float64(totalRounds)
	if frac < 0 {
		frac = 0
	}
	return w.initialTotal / energy.Joules(len(w.Nodes)) * energy.Joules(frac)
}

// AliveIDsInto appends the ids of nodes above the death line, ascending,
// into a caller-owned buffer (truncated first), so per-round hot paths
// allocate nothing.
func (w *Network) AliveIDsInto(deathLine energy.Joules, dst []int) []int {
	dst = dst[:0]
	for _, n := range w.Nodes {
		if n.Alive(deathLine) {
			dst = append(dst, n.ID)
		}
	}
	return dst
}

// AliveCount returns how many nodes are above the death line.
func (w *Network) AliveCount(deathLine energy.Joules) int {
	c := 0
	for _, n := range w.Nodes {
		if n.Alive(deathLine) {
			c++
		}
	}
	return c
}

// FirstDead reports whether any node has fallen to or below the death
// line — the paper's network-death criterion — and returns the id of one
// such node (the lowest id) when true.
func (w *Network) FirstDead(deathLine energy.Joules) (id int, dead bool) {
	for _, n := range w.Nodes {
		if !n.Alive(deathLine) {
			return n.ID, true
		}
	}
	return 0, false
}

// DistToBS returns the distance from node id to the base station.
func (w *Network) DistToBS(id int) float64 {
	return w.Nodes[id].Pos.Dist(w.BS)
}

// MeanDistToBS returns the mean node→BS distance, the d_toBS estimate of
// §3.2 ("approximated by the average distance between the nodes and BS").
func (w *Network) MeanDistToBS() float64 {
	pts := make([]geom.Vec3, len(w.Nodes))
	for i, n := range w.Nodes {
		pts[i] = n.Pos
	}
	return geom.MeanDistToPoint(pts, w.BS)
}

// Positions returns a snapshot of all node positions, indexed by id.
func (w *Network) Positions() []geom.Vec3 {
	pts := make([]geom.Vec3, len(w.Nodes))
	for i, n := range w.Nodes {
		pts[i] = n.Pos
	}
	return pts
}

// ConsumptionRates returns consumed/initial per node, indexed by id —
// the per-node statistic mapped in Figure 4.
func (w *Network) ConsumptionRates() []float64 {
	rates := make([]float64, len(w.Nodes))
	for i, n := range w.Nodes {
		rates[i] = n.Battery.ConsumptionRate()
	}
	return rates
}
