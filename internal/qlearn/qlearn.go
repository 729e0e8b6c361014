// Package qlearn implements the Q-learning machinery of QLEC's Data
// Transmission Phase (§3.3, §4.2, Algorithm 4).
//
// The paper's construction is model-based value iteration driven by
// learned link statistics rather than sample-based Q-learning: on every
// Send-Data call the node recomputes Q*(b_i, a_j) for EVERY action
// (each cluster head plus the base station) from
//
//	Q*(b_i, a_j) = R_t + γ·(P·V*(h_j) + (1−P)·V*(b_i))        (Eq. 15)
//	R_t          = P·R_success + (1−P)·R_fail                  (Eq. 16)
//
// where P is the node's running estimate of the link success probability
// to h_j ("estimated by the ratio between the successfully transmitted
// packets and all the packets sent recently", via ACKs), and the rewards
// are Eq. (17) on success, Eq. (19) for the base station (an extra −l
// penalty), and Eq. (20) on failure. The node then sets
// V*(b_i) = max_a Q*(b_i, a) and forwards to the argmax head.
//
// What is *learned* over time is the link-probability table and the V
// values (cluster heads update theirs after every round per Algorithm 1
// line 15); convergence of V is the "X updates" in the paper's O(kX)
// running-time claim, and this package counts updates and exposes a
// convergence test so that claim can be benchmarked directly.
//
// Unit note (DESIGN.md §6.4): Eq. (17)–(20) mix raw Joule quantities
// with the dimensionless weights of Table 2 (α₁=0.05, α₂=1.05...).
// Those weights only produce a meaningful trade-off if the energy terms
// are normalized, so x(·) here is residual energy as a fraction of
// initial energy (x ∈ [0,1], base station pinned at 1) and y(·) is the
// Eq. (18) transmission cost normalized by the cost of the longest
// possible hop in the deployment box.
package qlearn

import (
	"fmt"
	"math"

	"qlec/internal/energy"
	"qlec/internal/network"
	"qlec/internal/rng"
)

// Params collects the reward weights and learning constants of Table 2.
type Params struct {
	// Gamma is the discount rate γ ∈ [0,1] (Table 2: 0.95).
	Gamma float64
	// G is the flat punishment −g applied to every transmission attempt.
	G float64
	// Alpha1 weights the residual energies x(b_i)+x(h_j) on success
	// (Table 2: 0.05).
	Alpha1 float64
	// Alpha2 weights the transmission cost y(b_i,h_j) on success
	// (Table 2: 1.05).
	Alpha2 float64
	// Beta1 weights x(b_i) on failure (Table 2: 0.05).
	Beta1 float64
	// Beta2 weights y(b_i,h_j) on failure (Table 2: 1.05).
	Beta2 float64
	// L is the penalty for bypassing clustering and talking directly to
	// the base station ("set to be an arbitrarily large number", §4.2).
	L float64
	// LinkAlpha is the EWMA smoothing factor for the per-link success
	// estimator.
	LinkAlpha float64
	// InitialLinkP is the optimistic prior success probability for a
	// link with no history yet; optimism makes nodes try every head.
	InitialLinkP float64
	// Epsilon enables ε-greedy exploration, an extension beyond the
	// paper's purely greedy Algorithm 4: with probability Epsilon a
	// Decide call picks a uniformly random head instead of the argmax.
	// Exploration requires a stream via Learner.SetExploration; with the
	// paper's optimistic link priors it is rarely needed (untried
	// actions already look good), but it protects against premature
	// convergence when priors are pessimistic. Zero (the default)
	// reproduces the paper exactly.
	Epsilon float64
}

// DefaultParams returns Table 2's weights with sensible values for the
// constants the paper leaves unspecified (g, l, link estimator).
//
// The choice of g matters more than the paper lets on: with α₁=0.05 the
// success reward's energy bonus can reach α₁·(x(b_i)+x(h_j)) ≤ 0.1, and
// if g is below that, per-step rewards go positive, V values turn
// positive, and the (1−p)·V(self) term of Eq. (15) makes a *failing*
// action self-reinforcing — the node never reroutes. QELAR (the paper's
// cited ancestor) keeps per-step rewards negative for exactly this
// reason, so the default g = 0.3 dominates the maximum energy bonus.
func DefaultParams() Params {
	return Params{
		Gamma:        0.95,
		G:            0.3,
		Alpha1:       0.05,
		Alpha2:       1.05,
		Beta1:        0.05,
		Beta2:        1.05,
		L:            100,
		LinkAlpha:    0.25,
		InitialLinkP: 0.95,
	}
}

// Validate checks parameter ranges.
func (p Params) Validate() error {
	if !(p.Gamma >= 0 && p.Gamma <= 1) {
		return fmt.Errorf("qlearn: gamma %v outside [0,1]", p.Gamma)
	}
	if !(p.LinkAlpha > 0 && p.LinkAlpha <= 1) {
		return fmt.Errorf("qlearn: link alpha %v outside (0,1]", p.LinkAlpha)
	}
	if !(p.InitialLinkP >= 0 && p.InitialLinkP <= 1) {
		return fmt.Errorf("qlearn: initial link probability %v outside [0,1]", p.InitialLinkP)
	}
	if p.L < 0 || p.G < 0 {
		return fmt.Errorf("qlearn: penalties must be non-negative (g=%v, l=%v)", p.G, p.L)
	}
	for _, w := range []float64{p.Alpha1, p.Alpha2, p.Beta1, p.Beta2} {
		if w < 0 || math.IsNaN(w) {
			return fmt.Errorf("qlearn: reward weights must be non-negative, got %v", w)
		}
	}
	if p.Epsilon < 0 || p.Epsilon >= 1 || math.IsNaN(p.Epsilon) {
		return fmt.Errorf("qlearn: epsilon %v outside [0,1)", p.Epsilon)
	}
	return nil
}

// Learner holds the Q-learning state for an entire network: V values per
// node and link-probability estimators per observed link. One Learner
// serves all nodes (the paper's nodes each keep their own table; pooling
// them in one struct is an implementation convenience — no information
// crosses nodes that the paper doesn't allow, since Q computation for
// b_i reads only V(b_i), V(h_j) — which heads broadcast — and b_i's own
// link estimates).
type Learner struct {
	params Params
	net    *network.Network
	model  energy.Calc // radio model with the crossover distance precomputed
	bits   int

	v   []float64 // V*(b_i), indexed by node id
	vBS float64   // V*(h_BS), terminal, stays 0
	// links is the canonical link state: the EWMA success estimate of
	// every link its sender has observed, and nothing for the rest — a
	// missing link reads as the optimistic prior. Observe writes it, and
	// LinkP and action-row fills read it. Memory is O(N + observed
	// links) rather than one entry per directed pair (DESIGN.md §8).
	links linkStore

	// yNorm is the Eq. (18) cost of the longest possible in-box hop,
	// used to normalize y(·) into [0,1].
	yNorm float64

	// Head-compact action rows for Decide. BeginEpoch arms them for one
	// head set — a round's elected heads. Node i's row holds one action
	// per target in [BS, heads[0], heads[1], ...]: y(i, ·), a pure
	// function of positions, which only change between rounds, and
	// P(i, ·), the link estimate with the prior already substituted. A
	// row fills on the node's first Decide of the epoch — y from the
	// geometry, P as the prior overlaid with the node's observed links
	// that have a column — and Observe keeps its P entries current, so
	// Decide streams k+1 contiguous entries instead of probing the link
	// store per head. Bumping epoch expires every row at once. The rows
	// are the learner's largest state, N·(k+1) entries (≈12.6 MB at the
	// §5.3 shape).
	epoch   uint64
	armed   bool
	heads   []int             // the armed head set
	headBat []*energy.Battery // headBat[j] is heads[j]'s battery, read for x(heads[j])
	col     []int             // target id+1 → its column in a row (BS 0, heads 1..k), −1 for the rest
	stamp   []uint64          // stamp[i] == epoch: node i's row is live
	rows    []action          // N rows of width k+1, node-major

	// scratch and scratchBat hold the row of a Decide call whose head
	// set is not the armed one, filled the same way for that call only.
	scratch    []action
	scratchBat []*energy.Battery

	updates   uint64
	lastDelta float64
	maxDelta  *deltaWindow

	// explore drives ε-greedy action selection when params.Epsilon > 0.
	explore *rng.Stream

	// decObs/outObs, when installed, observe Decide calls and ACK
	// outcomes for the audit flight recorder (see observe.go).
	decObs DecisionObserver
	outObs OutcomeObserver
}

// NewLearner builds a Learner for the network. bits is the packet size L
// used in the Eq. (18) cost inside rewards.
func NewLearner(w *network.Network, model energy.Model, bits int, params Params) (*Learner, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if bits <= 0 {
		return nil, fmt.Errorf("qlearn: bits must be positive, got %d", bits)
	}
	// Normalize y by the cost of a *typical* long hop — half the largest
	// box dimension — not the worst-case diagonal. With a diagonal
	// normalizer the d⁴ multi-path law makes every realistic hop's y
	// vanish, the α₂ distance penalty stops differentiating heads, and
	// all members converge on whichever head has the best V (the one
	// nearest the BS), ballooning transmit energy. Half-extent keeps
	// in-cluster hops at y ≈ 0.1–0.5 and far hops at y ≫ 1, so distance
	// dominates and residual energy/link quality break ties — the
	// trade-off the Table 2 weights (α₁=0.05, α₂=1.05) encode.
	size := w.Box.Size()
	ref := math.Max(size.X, math.Max(size.Y, size.Z)) / 2
	l := &Learner{
		params:   params,
		net:      w,
		model:    model.Calc(),
		bits:     bits,
		v:        make([]float64, w.N()),
		links:    newLinkStore(w.N()),
		yNorm:    float64(model.TxAmplifier(bits, ref)),
		maxDelta: newDeltaWindow(64),
	}
	if l.yNorm <= 0 {
		return nil, fmt.Errorf("qlearn: degenerate deployment box (size %v)", size)
	}
	return l, nil
}

// action is one entry of an action row: the normalized Eq. (18) cost
// y(from, to) and the link estimate P(from, to).
type action struct{ y, p float64 }

// x returns the normalized residual energy of a node, or 1 for the
// mains-powered base station.
func (l *Learner) x(id int) float64 {
	if id == network.BSID {
		return 1
	}
	return xOf(l.net.Nodes[id].Battery)
}

// xOf is the residual energy of a battery as a fraction of its initial
// charge.
func xOf(b *energy.Battery) float64 {
	return float64(b.Residual()) / float64(b.Initial())
}

// y returns the normalized Eq. (18) transmission cost from node to
// target.
func (l *Learner) y(from, to int) float64 {
	var d float64
	if to == network.BSID {
		d = l.net.DistToBS(from)
	} else {
		d = l.net.Nodes[from].Pos.Dist(l.net.Nodes[to].Pos)
	}
	return float64(l.model.TxAmplifier(l.bits, d)) / l.yNorm
}

// LinkP returns the node's current estimate of the link success
// probability to target.
func (l *Learner) LinkP(from, to int) float64 {
	if p, ok := l.links.lookup(from, to); ok {
		return p
	}
	return l.params.InitialLinkP
}

// rewardSuccess evaluates Eq. (17), or Eq. (19) when target is the BS.
func (l *Learner) rewardSuccess(from, to int) float64 {
	r := -l.params.G + l.params.Alpha1*(l.x(from)+l.x(to)) - l.params.Alpha2*l.y(from, to)
	if to == network.BSID {
		r -= l.params.L
	}
	return r
}

// rewardFailure evaluates Eq. (20).
func (l *Learner) rewardFailure(from, to int) float64 {
	return -l.params.G + l.params.Beta1*l.x(from) - l.params.Beta2*l.y(from, to)
}

// q evaluates Eq. (15)+(16) for one state-action pair.
func (l *Learner) q(from, to int) float64 {
	a := action{y: l.y(from, to), p: l.LinkP(from, to)}
	if to == network.BSID {
		return l.qAction(a, l.x(from), l.v[from], 1, l.vBS, l.params.L)
	}
	return l.qAction(a, l.x(from), l.v[from], l.x(to), l.v[to], 0)
}

// qAction is q for one action-row entry: the from-side invariants —
// x(from) and V*(from), identical for every action probed by one Decide
// call — and the target's x and V are supplied by the caller, and
// penalty is Eq. (19)'s l for the BS action and 0 for a head. The
// arithmetic is term-for-term the same expression as the
// rewardSuccess/rewardFailure/q composition (subtracting a zero penalty
// leaves every value's bits unchanged), so results stay byte-identical
// (the determinism-preservation rule of DESIGN.md §8); the transmission
// cost y is evaluated once instead of once per reward term.
func (l *Learner) qAction(a action, xFrom, vFrom, xTo, vTo, penalty float64) float64 {
	rs := -l.params.G + l.params.Alpha1*(xFrom+xTo) - l.params.Alpha2*a.y - penalty
	rf := -l.params.G + l.params.Beta1*xFrom - l.params.Beta2*a.y
	rt := a.p*rs + (1-a.p)*rf
	return rt + l.params.Gamma*(a.p*vTo+(1-a.p)*vFrom)
}

// BeginEpoch arms the action rows for one head set — typically a round's
// elected heads — and expires every row filled so far. Until the next
// BeginEpoch, Decide(from, heads) calls whose heads match the epoch's set
// read their actions from from's row, filled on its first such call.
// Callers whose node positions can change (a mobility model) must call
// BeginEpoch or InvalidateGeometry afterwards — QLEC arms every round
// from StartRound, which runs after any movement. Passing nil, or a head
// set naming a node twice (one column per node could not hold both),
// disarms the rows, and every Decide fills a scratch row instead.
func (l *Learner) BeginEpoch(heads []int) {
	l.epoch++
	if l.armed {
		for _, h := range l.heads {
			l.col[h+1] = -1
		}
		l.armed = false
	}
	if heads == nil {
		return
	}
	n := len(l.v)
	if l.col == nil {
		l.stamp = make([]uint64, n)
		l.col = make([]int, n+1)
		for i := range l.col {
			l.col[i] = -1
		}
		l.col[0] = 0 // the BS column
	}
	for j, h := range heads {
		if l.col[h+1] >= 0 { // h named twice: disarm
			for _, h := range heads[:j] {
				l.col[h+1] = -1
			}
			return
		}
		l.col[h+1] = j + 1
	}
	l.armed = true
	l.heads = append(l.heads[:0], heads...)
	l.headBat = l.batteries(l.headBat, heads)
	need := n * (len(heads) + 1)
	if cap(l.rows) < need {
		l.rows = make([]action, need)
	}
	l.rows = l.rows[:need]
}

// InvalidateGeometry implements cluster.GeometryInvalidator for the
// learner: node positions changed, so every row's y values are stale.
// Bumping the epoch expires the rows; each refills on its node's next
// Decide.
func (l *Learner) InvalidateGeometry() {
	l.epoch++
}

// actionRow returns from's row for the action set [BS, heads...] and the
// heads' batteries: the epoch's row when heads is the armed set, filled
// on from's first call of the epoch, and a fresh fill into scratch
// otherwise.
func (l *Learner) actionRow(from int, heads []int) ([]action, []*energy.Battery) {
	w := len(heads) + 1
	if l.armed && slicesEqual(l.heads, heads) {
		row := l.rows[from*w : (from+1)*w]
		if l.stamp[from] != l.epoch {
			// A sparse block overlays its entries on a row filled with
			// the prior, in O(k + seen); a direct block is looked up per
			// target, in O(k).
			targets, off, sparse := l.links.sparse(from)
			l.fillRow(row, from, heads, !sparse)
			for i, t := range targets {
				if c := l.col[t+1]; c >= 0 {
					row[c].p = l.links.p[off+i]
				}
			}
			l.stamp[from] = l.epoch
		}
		return row, l.headBat
	}
	if cap(l.scratch) < w {
		l.scratch = make([]action, w)
	}
	row := l.scratch[:w]
	l.fillRow(row, from, heads, true)
	l.scratchBat = l.batteries(l.scratchBat, heads)
	return row, l.scratchBat
}

// fillRow computes row = [a(from, BS), a(from, heads[0]), ...]: y from
// the geometry, and P looked up per target when lookup is set, else the
// prior, for the caller to overlay with the links from has observed.
func (l *Learner) fillRow(row []action, from int, heads []int, lookup bool) {
	p := l.params.InitialLinkP
	if lookup {
		p = l.LinkP(from, network.BSID)
	}
	row[0] = action{y: l.y(from, network.BSID), p: p}
	for j, h := range heads {
		if lookup {
			p = l.LinkP(from, h)
		}
		row[j+1] = action{y: l.y(from, h), p: p}
	}
}

// batteries refills dst with the batteries of heads, in order.
func (l *Learner) batteries(dst []*energy.Battery, heads []int) []*energy.Battery {
	if cap(dst) < len(heads) {
		dst = make([]*energy.Battery, len(heads))
	}
	dst = dst[:len(heads)]
	for j, h := range heads {
		dst[j] = l.net.Nodes[h].Battery
	}
	return dst
}

func slicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// QValue evaluates Eq. (15)+(16) for one state-action pair without
// mutating any state — introspection for tests, debugging and
// visualization. target may be network.BSID.
func (l *Learner) QValue(from, target int) float64 {
	return l.q(from, target)
}

// SetExploration installs the stream driving ε-greedy exploration.
// Required when Params.Epsilon > 0; a nil stream disables exploration.
func (l *Learner) SetExploration(s *rng.Stream) { l.explore = s }

// Decide implements Algorithm 4 for node from: it computes Q over the
// action set (every head plus the base station), refreshes V*(from) to
// the max, and returns the argmax target (a head id or network.BSID).
// Ties break toward the lower id, BS last, for determinism. With
// Epsilon > 0 and an exploration stream installed, it instead returns a
// head sampled uniformly from the heads other than from itself with
// probability ε (V is still refreshed from the greedy max, as in
// standard ε-greedy value iteration). Excluding from keeps the
// realized exploration rate at ε for heads too — sampling the full
// list and falling back to greedy when the draw landed on from would
// silently depress it.
func (l *Learner) Decide(from int, heads []int) int {
	// Invariants of the from side — its normalized residual energy and
	// current V — are identical for every probed action; hoist them out
	// of the per-head loop. A head's x and V are read fresh on every
	// call: its battery drains and its V updates mid-round. The
	// decision-observer captures below consume no randomness and change
	// no arithmetic, so observed and unobserved runs stay byte-identical.
	xFrom := l.x(from)
	vFrom := l.v[from]
	var rec *Decision
	if l.decObs != nil {
		rec = &Decision{Node: from, VBefore: vFrom, EpsRoll: math.NaN()}
	}
	row, bats := l.actionRow(from, heads)
	best := network.BSID
	bestQ := l.qAction(row[0], xFrom, vFrom, 1, l.vBS, l.params.L)
	if rec != nil {
		rec.Candidates = append(rec.Candidates, network.BSID)
		rec.QValues = append(rec.QValues, bestQ)
	}
	others := len(heads)
	for j, h := range heads {
		if h == from {
			others--
			continue
		}
		q := l.qAction(row[j+1], xFrom, vFrom, xOf(bats[j]), l.v[h], 0)
		if rec != nil {
			rec.Candidates = append(rec.Candidates, h)
			rec.QValues = append(rec.QValues, q)
		}
		if q > bestQ || (q == bestQ && better(h, best)) {
			bestQ = q
			best = h
		}
	}
	l.setV(from, bestQ)
	chosen := best
	explored := false
	if l.params.Epsilon > 0 && l.explore != nil && len(heads) > 0 {
		roll := l.explore.Float64()
		if rec != nil {
			rec.EpsRoll = roll
		}
		if roll < l.params.Epsilon && others > 0 {
			j := l.explore.Intn(others)
			for _, h := range heads {
				if h == from {
					continue
				}
				if j == 0 {
					chosen = h
					explored = true
					break
				}
				j--
			}
		}
	}
	if rec != nil {
		rec.Greedy = best
		rec.Chosen = chosen
		rec.Explored = explored
		rec.VAfter = bestQ
		l.decObs(*rec)
	}
	return chosen
}

// better orders candidate targets for tie-breaking: any head beats the
// BS; between heads the lower id wins.
func better(candidate, incumbent int) bool {
	if incumbent == network.BSID {
		return true
	}
	return candidate < incumbent
}

// Observe folds a transmission outcome into the link estimator —
// the ACK-driven learning step of §4.2. The update is an exponentially
// weighted moving average, p += LinkAlpha·(outcome − p): first contact
// seeds the estimate with the prior so one failure does not zero it,
// then folds the outcome. When from's action row is live and to is one
// of its targets, the row's entry takes the new estimate too.
func (l *Learner) Observe(from, to int, success bool) {
	slot, seen := l.links.slot(from, to)
	p := l.params.InitialLinkP
	if seen {
		p = *slot
	}
	x := 0.0
	if success {
		x = 1
	}
	p += l.params.LinkAlpha * (x - p)
	*slot = p
	if l.armed && l.stamp[from] == l.epoch {
		if c := l.col[to+1]; c >= 0 {
			l.rows[from*(len(l.heads)+1)+c].p = p
		}
	}
	if l.outObs != nil {
		r := l.rewardFailure(from, to)
		if success {
			r = l.rewardSuccess(from, to)
		}
		l.outObs(Outcome{From: from, To: to, Success: success, LinkP: p, Reward: r})
	}
}

// UpdateHeadValue implements Algorithm 1 line 15: after the end-of-round
// burst, a cluster head refreshes its own V from its single action
// (transmit to the BS):
//
//	V*(h_j) = Q*(h_j, a_BS) = R_t + γ(P·V*(h_BS) + (1−P)·V*(h_j))
//
// The head→BS hop carries no −l penalty (delivering fused data to the BS
// is the head's job; the penalty exists to stop *members* bypassing
// clustering).
func (l *Learner) UpdateHeadValue(head int) {
	p := l.LinkP(head, network.BSID)
	// Eq. (17)-form reward toward the BS without the member penalty.
	rs := -l.params.G + l.params.Alpha1*(l.x(head)+1) - l.params.Alpha2*l.y(head, network.BSID)
	rf := l.rewardFailure(head, network.BSID)
	rt := p*rs + (1-p)*rf
	q := rt + l.params.Gamma*(p*l.vBS+(1-p)*l.v[head])
	l.setV(head, q)
}

func (l *Learner) setV(id int, v float64) {
	delta := math.Abs(v - l.v[id])
	l.v[id] = v
	l.updates++
	l.lastDelta = delta
	l.maxDelta.push(delta)
}

// V returns the current V*(id) (or the BS terminal value for
// network.BSID).
func (l *Learner) V(id int) float64 {
	if id == network.BSID {
		return l.vBS
	}
	return l.v[id]
}

// Updates returns the number of V updates so far — the "X" in the
// paper's O(kX) running time (Lemma 3).
func (l *Learner) Updates() uint64 { return l.updates }

// MeanV returns the mean V*(b_i) across all nodes — a one-number
// summary of Q-table state for telemetry (obs round gauges).
func (l *Learner) MeanV() float64 {
	if len(l.v) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range l.v {
		sum += v
	}
	return sum / float64(len(l.v))
}

// Converged reports whether the largest V change over the last window of
// updates has fallen below eps. It is false until the window fills.
func (l *Learner) Converged(eps float64) bool {
	return l.maxDelta.full() && l.maxDelta.max() < eps
}

// deltaWindow is a fixed-size ring of recent |ΔV| values.
type deltaWindow struct {
	buf  []float64
	n    int
	next int
}

func newDeltaWindow(size int) *deltaWindow {
	return &deltaWindow{buf: make([]float64, size)}
}

func (w *deltaWindow) push(v float64) {
	w.buf[w.next] = v
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
}

func (w *deltaWindow) full() bool { return w.n == len(w.buf) }

func (w *deltaWindow) max() float64 {
	m := 0.0
	for i := 0; i < w.n; i++ {
		if w.buf[i] > m {
			m = w.buf[i]
		}
	}
	return m
}
