package audit

import (
	"fmt"
	"math"

	"qlec/internal/packet"
	"qlec/internal/qlearn"
)

// DecisionRecord is one qlearn.Decision stamped with the simulation
// round, plus the realized reward joined from the next ACK outcome for
// the chosen link (HasReward reports whether that outcome arrived
// before the record aged out or another decision superseded it).
type DecisionRecord struct {
	Round      int       `json:"round"`
	Node       int       `json:"node"`
	Candidates []int     `json:"candidates"`
	QValues    []float64 `json:"qValues"`
	Chosen     int       `json:"chosen"`
	VBefore    float64   `json:"vBefore"`
	VAfter     float64   `json:"vAfter"`
	Success    bool      `json:"success,omitempty"`
	Reward     float64   `json:"reward,omitempty"`
	LinkP      float64   `json:"linkP,omitempty"`
	HasReward  bool      `json:"hasReward,omitempty"`
}

// RecordDecision consumes one qlearn.Decision (install via
// ObserveLearner). Q-values are screened for divergence and NaN.
func (r *Recorder) RecordDecision(d qlearn.Decision) {
	rec := DecisionRecord{
		Round: r.curRound, Node: d.Node,
		Candidates: d.Candidates, QValues: d.QValues,
		Chosen: d.Chosen, VBefore: d.VBefore, VAfter: d.VAfter,
	}
	for i, q := range d.QValues {
		if math.IsNaN(q) || math.IsInf(q, 0) || math.Abs(q) > r.qAbs {
			r.anomaly(Anomaly{
				Type: AnomalyQDivergence, Round: r.curRound, Node: d.Node,
				Detail: fmt.Sprintf("Q(%d→%d) = %g beyond |Q| ≤ %g", d.Node, d.Candidates[i], q, r.qAbs),
			})
			break // one anomaly per decision is enough
		}
	}
	r.decisions.push(rec)
	if r.lastDecision != nil && d.Node >= 0 && d.Node < len(r.lastDecision) {
		r.lastDecision[d.Node] = r.decisions.total - 1
	}
}

// RecordOutcome joins an ACK outcome's realized reward back onto the
// node's most recent decision when that decision chose the observed
// link and has not already been rewarded (a decision launches at most
// one first transmission; retries re-Decide).
func (r *Recorder) RecordOutcome(o qlearn.Outcome) {
	if r.lastDecision == nil || o.From < 0 || o.From >= len(r.lastDecision) {
		return
	}
	rec, ok := r.decisions.get(r.lastDecision[o.From])
	if !ok || rec.Chosen != o.To || rec.HasReward {
		return
	}
	rec.Success = o.Success
	rec.Reward = o.Reward
	rec.LinkP = o.LinkP
	rec.HasReward = true
}

// Anomaly types detected over the combined ledger/decision stream.
const (
	// AnomalyRoutingLoop: one packet transmitted ≥ loopTxThreshold
	// times within a single round.
	AnomalyRoutingLoop = "routing-loop"
	// AnomalyCHStarvation: fewer heads than the K target for
	// starvationRounds consecutive rounds.
	AnomalyCHStarvation = "ch-starvation"
	// AnomalyQDivergence: a probed Q-value went NaN/Inf or beyond
	// qAbsThreshold in magnitude.
	AnomalyQDivergence = "q-divergence"
	// AnomalyDeadNodeTx: a transmit draw by a node whose ledger-implied
	// residual was already at or below the death line.
	AnomalyDeadNodeTx = "dead-node-tx"
)

// Anomaly is one detector firing.
type Anomaly struct {
	Type      string    `json:"type"`
	Round     int       `json:"round"`
	Node      int       `json:"node,omitempty"`
	Packet    packet.ID `json:"pkt,omitempty"`
	HasPacket bool      `json:"hasPkt,omitempty"`
	Detail    string    `json:"detail"`
}

func (r *Recorder) anomaly(a Anomaly) {
	r.anomalyCounts[a.Type]++
	if len(r.anomalies) < maxAnomaliesKept {
		r.anomalies = append(r.anomalies, a)
	}
	if r.anomaliesMetric != nil {
		r.anomaliesMetric.With(a.Type).Inc()
	}
}
