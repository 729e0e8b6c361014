// Package metrics defines the measurement types shared by the simulation
// engine and the experiment harness: per-round statistics and whole-run
// results covering every quantity the paper reports — packet delivery
// rate (Fig. 3a), total energy consumption (Fig. 3b), network lifespan
// (Fig. 3c), transmission latency (§1/§5 claims), and per-node energy
// consumption rates (Fig. 4).
package metrics

import (
	"fmt"
	"io"
	"strings"

	"qlec/internal/energy"
	"qlec/internal/stats"
)

// DropReason classifies why a packet failed to reach the base station.
type DropReason int

const (
	// DropLink: the radio link failed on every allowed attempt.
	DropLink DropReason = iota
	// DropQueue: the target head's queue was full on every allowed
	// attempt ("limited storage caches of cluster heads", §4.2).
	DropQueue
	// DropBatch: the end-of-round aggregated burst toward the BS
	// ultimately failed, losing the fused packets.
	DropBatch
	// DropDead: the holder or target died with the packet in flight.
	DropDead
	numDropReasons
)

// String implements fmt.Stringer.
func (d DropReason) String() string {
	switch d {
	case DropLink:
		return "link"
	case DropQueue:
		return "queue"
	case DropBatch:
		return "batch"
	case DropDead:
		return "dead"
	default:
		return fmt.Sprintf("DropReason(%d)", int(d))
	}
}

// RoundStats aggregates one round of simulation.
type RoundStats struct {
	Round     int
	Heads     int
	Generated int
	Delivered int
	Dropped   [numDropReasons]int
	// Energy consumed network-wide during this round.
	Energy energy.Joules
	// AliveAtEnd counts nodes above the death line at round end.
	AliveAtEnd int
	// MeanLatency is the mean end-to-end latency (seconds) of packets
	// delivered this round, 0 if none.
	MeanLatency float64
}

// DroppedTotal sums drops across reasons for the round.
func (r RoundStats) DroppedTotal() int {
	total := 0
	for _, d := range r.Dropped {
		total += d
	}
	return total
}

// EnergyBreakdown splits consumption by radio activity — the
// diagnostic behind EXPERIMENTS.md's Figure 3(b) analysis (e.g. QLEC's
// extra Joules over k-means are transmit energy from energy-selected,
// position-blind heads).
type EnergyBreakdown struct {
	// Tx is data-plane transmit energy (members, relays, bursts).
	Tx energy.Joules
	// Rx is data-plane receive energy at heads, relays and nowhere else
	// (the BS is mains-powered).
	Rx energy.Joules
	// Fusion is the E_DA aggregation cost at heads.
	Fusion energy.Joules
	// Control is the per-round HELLO/advertisement overhead.
	Control energy.Joules
}

// Total sums the categories.
func (b EnergyBreakdown) Total() energy.Joules {
	return b.Tx + b.Rx + b.Fusion + b.Control
}

// NumEnergyCategories is the number of EnergyBreakdown categories.
const NumEnergyCategories = 4

// EnergyCategoryNames names the categories in Categories() order —
// the same lowercase names the audit ledger uses for its causes.
var EnergyCategoryNames = [NumEnergyCategories]string{"tx", "rx", "fusion", "control"}

// Categories returns the breakdown as an array ordered per
// EnergyCategoryNames, for callers that iterate categories (the audit
// report cross-checks ledger per-cause sums against these fields).
func (b EnergyBreakdown) Categories() [NumEnergyCategories]energy.Joules {
	return [NumEnergyCategories]energy.Joules{b.Tx, b.Rx, b.Fusion, b.Control}
}

// Result is a whole-run measurement.
type Result struct {
	Protocol string
	// Rounds actually executed (may be fewer than requested when
	// StopOnDeath ends the run early).
	Rounds   int
	PerRound []RoundStats

	Generated int
	Delivered int
	Dropped   [numDropReasons]int

	// TotalEnergy consumed across the run.
	TotalEnergy energy.Joules
	// Energy splits TotalEnergy by radio activity.
	Energy EnergyBreakdown
	// Lifespan is the 1-based round at whose end the first node fell to
	// the death line, or 0 if every node survived the run.
	Lifespan int
	// FirstDead is the node id that died first, or -1.
	FirstDead int

	// Latency aggregates end-to-end delivery latency in seconds. For
	// hold-and-burst protocols this is dominated by the round length
	// (fused data leaves at round end per Algorithm 1), so cross-
	// protocol latency comparisons should use Access instead.
	Latency stats.Summary
	// Access aggregates the time from a packet's generation to its
	// acceptance at the first cluster head (ACK received), including
	// retries — the latency component the routing algorithm actually
	// controls.
	Access stats.Summary
	// Hops aggregates radio hops per delivered packet.
	Hops stats.Summary
	// ConsumptionRates holds consumed/initial per node at run end
	// (Figure 4's per-node statistic).
	ConsumptionRates []float64
}

// WriteRoundsCSV emits the per-round time series as CSV — the raw data
// behind any per-round plot (alive-count curves, cumulative energy,
// delivery over time).
func (r *Result) WriteRoundsCSV(w io.Writer) error {
	if err := r.Validate(); err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("round,heads,generated,delivered,dropped_link,dropped_queue,dropped_batch,dropped_dead,energy_j,alive,mean_latency_s\n")
	for _, rs := range r.PerRound {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%d,%d,%d,%g,%d,%g\n",
			rs.Round, rs.Heads, rs.Generated, rs.Delivered,
			rs.Dropped[DropLink], rs.Dropped[DropQueue], rs.Dropped[DropBatch], rs.Dropped[DropDead],
			float64(rs.Energy), rs.AliveAtEnd, rs.MeanLatency)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// PDR returns delivered/generated, the paper's packet delivery rate.
// It returns 1 for a run with no traffic (nothing was lost).
func (r *Result) PDR() float64 {
	if r.Generated == 0 {
		return 1
	}
	return float64(r.Delivered) / float64(r.Generated)
}

// DroppedTotal sums drops across reasons.
func (r *Result) DroppedTotal() int {
	total := 0
	for _, d := range r.Dropped {
		total += d
	}
	return total
}

// Validate cross-checks internal consistency; the engine's tests call it
// on every run.
func (r *Result) Validate() error {
	if r.Generated < 0 || r.Delivered < 0 {
		return fmt.Errorf("metrics: negative counters")
	}
	if r.Delivered+r.DroppedTotal() > r.Generated {
		return fmt.Errorf("metrics: delivered %d + dropped %d exceeds generated %d",
			r.Delivered, r.DroppedTotal(), r.Generated)
	}
	if r.TotalEnergy < 0 {
		return fmt.Errorf("metrics: negative energy %v", r.TotalEnergy)
	}
	if len(r.PerRound) != r.Rounds {
		return fmt.Errorf("metrics: %d per-round entries for %d rounds", len(r.PerRound), r.Rounds)
	}
	var gen, del int
	var en energy.Joules
	for _, rs := range r.PerRound {
		gen += rs.Generated
		del += rs.Delivered
		en += rs.Energy
	}
	if gen != r.Generated || del != r.Delivered {
		return fmt.Errorf("metrics: per-round sums (gen %d, del %d) disagree with totals (%d, %d)",
			gen, del, r.Generated, r.Delivered)
	}
	diff := float64(en - r.TotalEnergy)
	if diff < 0 {
		diff = -diff
	}
	if diff > 1e-9*float64(r.TotalEnergy)+1e-12 {
		return fmt.Errorf("metrics: per-round energy %v disagrees with total %v", en, r.TotalEnergy)
	}
	return nil
}
