// Package audit is the flight recorder behind the QLEC reproduction's
// "why did this run do that" tooling (DESIGN.md §11). It consumes the
// engine's per-draw energy ledger (sim.Auditor) and the learner's
// decision/outcome stream (qlearn observers) into a bounded in-memory
// record, checks energy-conservation invariants every round, watches
// the stream for known pathologies (routing loops, cluster-head
// starvation, Q-value divergence, dead-node transmissions), and
// renders everything as a single JSON artifact that cmd/qlecaudit can
// report on, explain, and diff.
//
// A Recorder is single-use and single-goroutine, like the engine it
// observes: bind it, run the simulation, then snapshot with Artifact.
// Memory is bounded by the entry/decision rings.
package audit

import (
	"fmt"

	"qlec/internal/energy"
	"qlec/internal/network"
	"qlec/internal/obs"
	"qlec/internal/packet"
	"qlec/internal/qlearn"
	"qlec/internal/sim"
)

// A Recorder's bounds and anomaly thresholds.
const (
	// maxEntries bounds the in-memory ledger ring (~64k entries ≈ a
	// 20-round, 100-node run with default traffic); older entries are
	// overwritten first (the report still counts everything seen).
	maxEntries = 1 << 16
	// maxDecisions bounds the decision-record ring the same way.
	maxDecisions = 1 << 14
	// loopTxThreshold: a packet transmitted this many times in one
	// round is routing in circles (the engine's own chain guard gives
	// up at 32 hops; retries can only quadruple that).
	loopTxThreshold = 128
	// starvationRounds: consecutive rounds with fewer elected heads
	// than the K target before CH starvation is flagged.
	starvationRounds = 3
	// qAbsThreshold: |Q| beyond this is divergence (well-formed QLEC
	// values live in roughly [−(g+l)/(1−γ), 0], a few thousand).
	qAbsThreshold = 1e6

	// maxViolationsKept / maxAnomaliesKept cap the detail lists in the
	// report; totals keep counting past the cap.
	maxViolationsKept = 64
	maxAnomaliesKept  = 64
)

// Options configures a Recorder. The zero value records without
// metrics.
type Options struct {
	// Metrics, when non-nil, receives the qlec_audit_violations_total
	// and qlec_audit_anomalies_total counters.
	Metrics *obs.Registry
}

// Violation is one failed conservation check.
type Violation struct {
	// Kind is "node-conservation" (initial − Σledger ≠ residual) or
	// "total-energy" (Σcategories ≠ Result.TotalEnergy).
	Kind  string        `json:"kind"`
	Round int           `json:"round"`
	Node  int           `json:"node,omitempty"`
	Want  energy.Joules `json:"wantJ"`
	Got   energy.Joules `json:"gotJ"`
}

func (v Violation) String() string {
	if v.Kind == "node-conservation" {
		return fmt.Sprintf("round %d node %d: ledger implies residual %.9g J, battery holds %.9g J",
			v.Round, v.Node, v.Want, v.Got)
	}
	return fmt.Sprintf("round %d: ledger categories sum to %.9g J, engine reports %.9g J",
		v.Round, v.Want, v.Got)
}

// ViolationError is the structured error surfaced when any
// conservation check failed.
type ViolationError struct {
	Count uint64
	First []Violation // up to maxViolationsKept
}

func (e *ViolationError) Error() string {
	msg := fmt.Sprintf("audit: %d energy-conservation violation(s)", e.Count)
	if len(e.First) > 0 {
		msg += ": " + e.First[0].String()
	}
	return msg
}

// Recorder implements sim.Auditor plus the qlearn observers. Not safe
// for concurrent use; all methods must be called from the simulation
// goroutine, and Artifact/Report/Err only after the run.
type Recorder struct {
	// Anomaly thresholds: the package constants (tests lower them).
	loopTx     int
	starvation int
	qAbs       float64

	net        *network.Network
	deathLine  energy.Joules
	headTarget int

	baseline  []energy.Joules // per-node residual at Bind time
	spent     []energy.Joules // per-node Σledger since Bind
	byCause   [sim.NumEnergyCauses]energy.Joules
	nodeCause [][sim.NumEnergyCauses]energy.Joules // per-node, per-cause Σledger

	entries   ring[sim.EnergyEntry]
	decisions ring[DecisionRecord]
	// lastDecision maps node id → absolute decision index of the
	// node's most recent Decide, for joining the next outcome's reward
	// back onto it; −1 = none.
	lastDecision []int

	rounds   int
	curRound int

	// Per-round routing-loop state: transmissions per packet id.
	pktTx map[packet.ID]int
	// CH-starvation streak length.
	starveRun int

	violations     []Violation
	violationCount uint64
	anomalies      []Anomaly
	anomalyCounts  map[string]uint64

	violationsMetric *obs.Counter
	anomaliesMetric  *obs.CounterVec
}

// New builds a Recorder. Call Bind before installing it on an engine.
func New(opt Options) *Recorder {
	r := &Recorder{
		loopTx:        loopTxThreshold,
		starvation:    starvationRounds,
		qAbs:          qAbsThreshold,
		entries:       newRing[sim.EnergyEntry](maxEntries),
		decisions:     newRing[DecisionRecord](maxDecisions),
		pktTx:         make(map[packet.ID]int),
		anomalyCounts: make(map[string]uint64),
		curRound:      -1,
	}
	if opt.Metrics != nil {
		r.violationsMetric = opt.Metrics.Counter("qlec_audit_violations_total",
			"Energy-conservation invariant violations detected by the audit recorder.")
		r.anomaliesMetric = opt.Metrics.CounterVec("qlec_audit_anomalies_total",
			"Stream anomalies detected by the audit recorder.", "type")
	}
	return r
}

// Bind attaches the recorder to the network an engine will run over,
// snapshotting per-node residuals as the conservation baseline.
// deathLine and headTarget feed the dead-node-transmission and
// CH-starvation detectors (headTarget ≤ 0 disables starvation checks).
// Recorders are single-use: binding twice is an error.
func (r *Recorder) Bind(w *network.Network, deathLine energy.Joules, headTarget int) error {
	if r.net != nil {
		return fmt.Errorf("audit: recorder already bound; recorders are single-use")
	}
	if w == nil {
		return fmt.Errorf("audit: nil network")
	}
	r.net = w
	r.deathLine = deathLine
	r.headTarget = headTarget
	r.baseline = make([]energy.Joules, w.N())
	r.spent = make([]energy.Joules, w.N())
	r.nodeCause = make([][sim.NumEnergyCauses]energy.Joules, w.N())
	r.lastDecision = make([]int, w.N())
	for i, n := range w.Nodes {
		r.baseline[i] = n.Battery.Residual()
		r.lastDecision[i] = -1
	}
	return nil
}

// ObserveLearner wires the recorder into a learner's decision and
// outcome streams. Call alongside Bind, before the run.
func (r *Recorder) ObserveLearner(l *qlearn.Learner) {
	l.SetDecisionObserver(r.RecordDecision)
	l.SetOutcomeObserver(r.RecordOutcome)
}

// AuditBeginRound implements sim.Auditor.
func (r *Recorder) AuditBeginRound(round int, heads []int) {
	r.curRound = round
	r.rounds++
	clear(r.pktTx)
	if r.headTarget > 0 {
		if len(heads) < r.headTarget {
			r.starveRun++
			if r.starveRun == r.starvation {
				r.anomaly(Anomaly{
					Type: AnomalyCHStarvation, Round: round,
					Detail: fmt.Sprintf("%d heads elected (target %d) for %d consecutive rounds",
						len(heads), r.headTarget, r.starveRun),
				})
			}
		} else {
			r.starveRun = 0
		}
	}
}

// AuditEnergy implements sim.Auditor: one ledger entry per draw.
func (r *Recorder) AuditEnergy(e sim.EnergyEntry) {
	if e.Cause == sim.CauseTx && r.net != nil &&
		r.baseline[e.Node]-r.spent[e.Node] <= r.deathLine {
		r.anomaly(Anomaly{
			Type: AnomalyDeadNodeTx, Round: e.Round, Node: e.Node,
			Packet: e.Packet, HasPacket: e.HasPacket,
			Detail: fmt.Sprintf("transmission by node %d already at/below the death line", e.Node),
		})
	}
	if r.net != nil {
		r.spent[e.Node] += e.Joules
		r.nodeCause[e.Node][e.Cause] += e.Joules
	}
	r.byCause[e.Cause] += e.Joules
	if e.Cause == sim.CauseTx && e.HasPacket {
		r.pktTx[e.Packet]++
		if r.pktTx[e.Packet] == r.loopTx {
			r.anomaly(Anomaly{
				Type: AnomalyRoutingLoop, Round: e.Round, Node: e.Node,
				Packet: e.Packet, HasPacket: true,
				Detail: fmt.Sprintf("packet %d transmitted %d times this round", e.Packet, r.pktTx[e.Packet]),
			})
		}
	}
	r.entries.push(e)
}

// AuditEndRound implements sim.Auditor: the per-round invariant sweep.
// Per node, the baseline minus the node's ledger sum must equal its
// battery residual (double-entry closure); across categories, the
// ledger must sum to the engine's own cumulative TotalEnergy.
func (r *Recorder) AuditEndRound(round int, _, totalEnergy energy.Joules) {
	if r.net != nil {
		for i, n := range r.net.Nodes {
			implied := r.baseline[i] - r.spent[i]
			if got := n.Battery.Residual(); !energy.ApproxEqual(implied, got) {
				r.violate(Violation{Kind: "node-conservation", Round: round, Node: i, Want: implied, Got: got})
			}
		}
	}
	var sum energy.Joules
	for _, j := range r.byCause {
		sum += j
	}
	if !energy.ApproxEqual(sum, totalEnergy) {
		r.violate(Violation{Kind: "total-energy", Round: round, Want: sum, Got: totalEnergy})
	}
}

func (r *Recorder) violate(v Violation) {
	r.violationCount++
	if len(r.violations) < maxViolationsKept {
		r.violations = append(r.violations, v)
	}
	if r.violationsMetric != nil {
		r.violationsMetric.Inc()
	}
}

// Err returns the structured conservation error, or nil when every
// invariant held.
func (r *Recorder) Err() error {
	if r.violationCount > 0 {
		return &ViolationError{Count: r.violationCount, First: r.violations}
	}
	return nil
}

// Ledger returns the retained ledger entries in emission order.
func (r *Recorder) Ledger() []sim.EnergyEntry { return r.entries.items() }

// Decisions returns the retained decision records in emission order.
func (r *Recorder) Decisions() []DecisionRecord { return r.decisions.items() }

// ring is a fixed-capacity overwrite-oldest buffer.
type ring[T any] struct {
	buf   []T
	cap   int
	total int // pushes ever; buf[total%cap] is the next overwrite slot
}

func newRing[T any](capacity int) ring[T] {
	return ring[T]{buf: make([]T, 0, min(capacity, 1024)), cap: capacity}
}

func (r *ring[T]) push(v T) {
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.total%r.cap] = v
	}
	r.total++
}

// items returns the retained values oldest-first.
func (r *ring[T]) items() []T {
	if r.total <= len(r.buf) {
		return append([]T(nil), r.buf...)
	}
	out := make([]T, 0, len(r.buf))
	start := r.total % r.cap
	out = append(out, r.buf[start:]...)
	return append(out, r.buf[:start]...)
}

// get returns the value at absolute push index i, if still retained.
func (r *ring[T]) get(i int) (*T, bool) {
	if i < 0 || i >= r.total || i < r.total-len(r.buf) {
		return nil, false
	}
	return &r.buf[i%r.cap], true
}
