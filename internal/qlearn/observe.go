package qlearn

// Decision explainability: observer hooks that expose what each
// Decide call saw and chose, and what reward the next ACK
// observation realized. Both observers follow the engine's tracer
// discipline — nil by default, one branch on the unobserved path, and
// called synchronously from the simulation goroutine — so the bench
// path stays untouched when nobody is watching (DESIGN.md §11).

// Decision records one Decide call: the probed action set (the base
// station first, then each candidate head in probe order, aligned
// index-for-index with QValues), the target returned (Decide is
// greedy, so it is the argmax), and the V refresh the call applied.
// The Candidates/QValues slices are freshly allocated per call;
// observers may retain them.
type Decision struct {
	Node       int
	Candidates []int
	QValues    []float64
	Chosen     int
	VBefore    float64
	VAfter     float64
}

// DecisionObserver receives one Decision per Decide call.
type DecisionObserver func(Decision)

// SetDecisionObserver installs a decision observer. Passing nil
// disables decision capture.
func (l *Learner) SetDecisionObserver(o DecisionObserver) { l.decObs = o }

// Outcome records one ACK observation as folded into the link
// estimator: the realized reward — Eq. (17)/(19) on success, Eq. (20)
// on failure, evaluated at observation time — and the updated link
// estimate. This is the "reward applied on the next update" for the
// decision that launched the transmission.
type Outcome struct {
	From    int
	To      int
	Success bool
	LinkP   float64
	Reward  float64
}

// OutcomeObserver receives one Outcome per Observe call.
type OutcomeObserver func(Outcome)

// SetOutcomeObserver installs an outcome observer. Passing nil
// disables outcome capture.
func (l *Learner) SetOutcomeObserver(o OutcomeObserver) { l.outObs = o }
