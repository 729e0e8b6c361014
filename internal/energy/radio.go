// Package energy implements the first-order radio energy model of
// Heinzelman et al. (TWC 2002) that the QLEC paper builds on (§3.2 Eq. 6
// and §4.2 Eq. 18), plus battery accounting with the paper's "energy death
// line" network-liveness criterion (§5.1).
//
// Model summary, for a packet of L bits over distance d:
//
//	E_tx(L, d) = L·E_elec + L·ε_fs·d²   if d <  d₀   (free space)
//	E_tx(L, d) = L·E_elec + L·ε_mp·d⁴   if d >= d₀   (multi-path)
//	E_rx(L)    = L·E_elec
//	E_da(L)    = L·E_DA                 (aggregation at cluster heads)
//
// with the crossover distance d₀ = sqrt(ε_fs / ε_mp).
package energy

import (
	"fmt"
	"math"
)

// Joules is an amount of energy. A distinct type keeps Joule quantities
// from being confused with distances or probabilities in the simulator's
// bookkeeping.
type Joules float64

// Model holds the radio constants. The zero value is invalid; use
// DefaultModel or fill every field.
type Model struct {
	// Elec is the electronics energy per bit to run the transmitter or
	// receiver circuitry (E_elec). Typical: 50 nJ/bit.
	Elec Joules
	// FreeSpace is ε_fs, the free-space amplifier constant in J/bit/m².
	// The paper sets 10 pJ/bit/m² (Table 2).
	FreeSpace Joules
	// MultiPath is ε_mp, the multi-path amplifier constant in J/bit/m⁴.
	// The paper sets 0.0013 pJ/bit/m⁴ (Table 2).
	MultiPath Joules
	// Aggregation is E_DA, the per-bit data-aggregation cost at cluster
	// heads. Typical: 5 nJ/bit.
	Aggregation Joules
}

// DefaultModel returns the constants from the paper's Table 2 plus the
// standard Heinzelman values for the two constants the paper leaves at
// their customary defaults (E_elec, E_DA).
func DefaultModel() Model {
	return Model{
		Elec:        50e-9,   // 50 nJ/bit
		FreeSpace:   10e-12,  // 10 pJ/bit/m²
		MultiPath:   1.3e-15, // 0.0013 pJ/bit/m⁴
		Aggregation: 5e-9,    // 5 nJ/bit
	}
}

// Validate reports whether all constants are positive and finite.
func (m Model) Validate() error {
	check := func(name string, v Joules) error {
		f := float64(v)
		if !(f > 0) || math.IsInf(f, 0) {
			return fmt.Errorf("energy: %s must be positive and finite, got %v", name, f)
		}
		return nil
	}
	if err := check("Elec", m.Elec); err != nil {
		return err
	}
	if err := check("FreeSpace", m.FreeSpace); err != nil {
		return err
	}
	if err := check("MultiPath", m.MultiPath); err != nil {
		return err
	}
	return check("Aggregation", m.Aggregation)
}

// CrossoverDistance returns d₀ = sqrt(ε_fs/ε_mp), the distance at which
// the free-space and multi-path amplifier terms are equal (Eq. 18).
func (m Model) CrossoverDistance() float64 {
	return math.Sqrt(float64(m.FreeSpace) / float64(m.MultiPath))
}

// Tx returns the energy to transmit bits over distance d (Eq. 18 plus the
// electronics term).
func (m Model) Tx(bits int, d float64) Joules {
	return m.TxAmplifier(bits, d) + Joules(float64(bits))*m.Elec
}

// TxAmplifier returns only the amplifier portion of the transmit cost —
// the y(b_i, h_j) of Eq. (18), which the Q-learning reward uses directly.
func (m Model) TxAmplifier(bits int, d float64) Joules {
	l := float64(bits)
	if d < m.CrossoverDistance() {
		return Joules(l * float64(m.FreeSpace) * d * d)
	}
	d2 := d * d
	return Joules(l * float64(m.MultiPath) * d2 * d2)
}

// Rx returns the energy to receive bits.
func (m Model) Rx(bits int) Joules {
	return Joules(float64(bits)) * m.Elec
}

// Calc is a Model with the crossover distance precomputed. Tx and
// TxAmplifier are evaluated once per radio event on the simulator's hot
// path, and the sqrt inside CrossoverDistance showed up in profiles;
// Calc hoists it while keeping the per-call arithmetic — and therefore
// every result bit — identical to Model's.
type Calc struct {
	m  Model
	d0 float64
}

// Calc precomputes the crossover distance for hot-path cost evaluation.
func (m Model) Calc() Calc {
	return Calc{m: m, d0: m.CrossoverDistance()}
}

// Tx returns the energy to transmit bits over distance d (Eq. 18 plus
// the electronics term); identical to Model.Tx.
func (c Calc) Tx(bits int, d float64) Joules {
	return c.TxAmplifier(bits, d) + Joules(float64(bits))*c.m.Elec
}

// TxAmplifier returns the amplifier portion of the transmit cost;
// identical to Model.TxAmplifier.
func (c Calc) TxAmplifier(bits int, d float64) Joules {
	l := float64(bits)
	if d < c.d0 {
		return Joules(l * float64(c.m.FreeSpace) * d * d)
	}
	d2 := d * d
	return Joules(l * float64(c.m.MultiPath) * d2 * d2)
}

// Rx returns the energy to receive bits; identical to Model.Rx.
func (c Calc) Rx(bits int) Joules {
	return Joules(float64(bits)) * c.m.Elec
}

// Aggregate returns the energy to aggregate bits at a cluster head.
func (c Calc) Aggregate(bits int) Joules {
	return Joules(float64(bits)) * c.m.Aggregation
}

// ExpectedSqDistToCH evaluates Lemma 1's closed form for the expected
// squared member→CH distance with k clusters in an M-cube:
//
//	E[d²_toCH] = (4π/5)·(3/(4π))^(5/3) · M² / k^(2/3)
func ExpectedSqDistToCH(side, k float64) float64 {
	return 4 * math.Pi / 5 * math.Pow(3/(4*math.Pi), 5.0/3.0) * side * side / math.Pow(k, 2.0/3.0)
}

// OptimalClusterCount evaluates Theorem 1's closed form:
//
//	k_opt = 3/(4π) · (8πNε_fs / (15ε_mp))^(3/5) · M^(6/5) / d_toBS^(12/5)
//
// It returns the real-valued optimum; callers round to an integer count.
func (m Model) OptimalClusterCount(n int, side, dToBS float64) float64 {
	if n <= 0 || side <= 0 || dToBS <= 0 {
		panic("energy: OptimalClusterCount requires positive arguments")
	}
	ratio := 8 * math.Pi * float64(n) * float64(m.FreeSpace) / (15 * float64(m.MultiPath))
	return 3 / (4 * math.Pi) * math.Pow(ratio, 3.0/5.0) *
		math.Pow(side, 6.0/5.0) / math.Pow(dToBS, 12.0/5.0)
}

// EstimatedLifespanRounds estimates R — the total rounds of network
// lifetime that Eq. (2)'s average-energy schedule needs — from the
// energy model, as the paper's reference [7] (Javaid et al. 2015)
// prescribes: the network's total energy divided by the expected
// per-round dissipation of Eq. (6) composed with Lemma 1.
func (m Model) EstimatedLifespanRounds(totalEnergy Joules, bits, n, k int, side, dToBS float64) int {
	if totalEnergy <= 0 || k <= 0 {
		panic("energy: EstimatedLifespanRounds requires positive energy and k")
	}
	perRound := m.RoundEnergyAtK(bits, n, float64(k), side, dToBS)
	if perRound <= 0 {
		return 1
	}
	r := int(float64(totalEnergy) / float64(perRound))
	if r < 1 {
		r = 1
	}
	return r
}

// RoundEnergyAtK evaluates the paper's Eq. (6), the total energy
// dissipated in one round with N nodes, k clusters, L bits per node and
// mean CH→BS distance dToBS,
//
//	E_r = L(2N·E_elec + N·E_DA + k·ε_mp·d_toBS⁴ + N·ε_fs·d_toCH²),
//
// with Lemma 1's E[d²_toCH] for the member→CH term: the expected
// per-round network energy as a function of the cluster count.
// Theorem 1's k_opt is the argmin of this function over real k > 0.
func (m Model) RoundEnergyAtK(bits, n int, k float64, side, dToBS float64) Joules {
	if k <= 0 {
		panic("energy: RoundEnergyAtK requires k > 0")
	}
	dToCH2 := ExpectedSqDistToCH(side, k)
	l := float64(bits)
	return Joules(l * (2*float64(n)*float64(m.Elec) +
		float64(n)*float64(m.Aggregation) +
		k*float64(m.MultiPath)*math.Pow(dToBS, 4) +
		float64(n)*float64(m.FreeSpace)*dToCH2))
}
