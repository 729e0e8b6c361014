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
	"runtime"
	"sync"
	"sync/atomic"

	"qlec/internal/energy"
	"qlec/internal/geom"
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

	// Candidate lists for Decide. BeginEpoch arms them for one head set
	// — a round's elected heads. Node i's list holds its entry for the
	// BS and for the candM heads whose screen bounds ranked highest at
	// its last full pass: y(i, ·), a pure function of positions, which
	// only change between rounds, and P(i, ·), the link estimate with
	// the prior already substituted. Beside them it keeps an envelope
	// that bounds every head left out at once (candRow). A full pass
	// fills a row — y from the geometry, P as the prior overlaid with
	// the node's observed links that have a column — and ranks it. For
	// a set of more than candM heads, BeginEpoch runs the first pass of
	// every sender's epoch, spread over GOMAXPROCS workers; Decide runs
	// one whenever a list has expired or its envelope cannot rule the
	// others out. Observe keeps the listed P entries current, so most
	// Decide calls read one node's few hundred bytes instead of a row
	// of k+1 entries. Bumping epoch expires every list at once. The
	// lists are the learner's largest state, N·384 B whatever k is
	// (≈1.1 MB at the §5.3 shape).
	epoch uint64
	armed bool
	set   []int     // the caller's head slice, recognized by identity (BeginEpoch)
	cols  []headCol // cols[j] describes heads[j], column j+1 of a row
	kmax  float64   // at least |k| of every armed column
	col   []int     // target id+1 → its column in a row (BS 0, heads 1..k), −1 for the rest
	cands []candRow // one per node

	// scratch holds the row of the current Decide call when it needs
	// one — a full pass, an observed call, or a head set that is not
	// armed — and scratchCols that unarmed set's columns.
	scratch     []action
	scratchCols []headCol
	// builders holds one scratch row per BeginEpoch worker.
	builders []builder

	stats listStats

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

// headCol describes one head column of a row: the head's id, its
// battery (read for x), its position (read by row fills) and k, the
// head-side term K = α₁·x(h) + γ·V(h) of the screen in Decide. k is
// exact when computed and an upper bound afterwards: the battery only
// drains, and setV recomputes k whenever the head's V changes.
type headCol struct {
	k   float64
	id  int
	bat *energy.Battery
	pos geom.Vec3
}

// candM is the length of a candidate list. It is not a knob: with
// k ≤ candM the list is the node's whole row and Decide does a full
// row's work, and a longer list costs more to rank and to read than
// the full passes it saves at the §5.3 shape.
const candM = 16

// candRow is one node's candidate list for the armed head set. It is
// live while stamp equals the learner's epoch. row[0] is the node's BS
// entry and row[1:n+1] the entries of the listed heads. With at most
// candM heads the list is the node's whole row: entry i+1 is column i,
// the node's own column included (the screen skips it), and col is
// unused. Otherwise the full pass listed the candM heads with the
// largest bounds s_j(d0), highest first, in columns col[:n], and out
// describes the heads left out. 48 bytes of header, 17 entries of 16
// and candM columns of 4.
type candRow struct {
	stamp uint64
	d0    float64
	out   envelope
	n     int
	row   [candM + 1]action
	col   [candM]int32
}

// envelope describes the heads a candidate list leaves out: their
// largest bound b at d0 (−Inf when none is left out) and the range of
// their P.
type envelope struct{ b, pmin, pmax float64 }

// leave folds a head left out, with finite bound s and link estimate
// p, into e.
func (e *envelope) leave(s, p float64) {
	if s > e.b {
		e.b = s
	}
	if p < e.pmin {
		e.pmin = p
	}
	if p > e.pmax {
		e.pmax = p
	}
}

// builder is one BeginEpoch worker's scratch: a row of k+1 entries and
// the full passes it ran.
type builder struct {
	row  []action
	full uint64
}

// listStats counts candidate-list events for tests and benchmarks.
type listStats struct {
	full     uint64 // full passes, BeginEpoch's included
	fallback uint64 // full passes forced by the envelope of a live list
	falling  uint64 // envelope tests on the p_min slope (D below d0)
	observed uint64 // lists expired by Observe
	raised   uint64 // epochs ended by a rise in an armed column's k
}

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
	if to == network.BSID {
		return l.cost(l.net.DistToBS(from))
	}
	return l.cost(l.net.Nodes[from].Pos.Dist(l.net.Nodes[to].Pos))
}

// cost is the normalized Eq. (18) cost of a hop of length d.
func (l *Learner) cost(d float64) float64 {
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

// BeginEpoch arms the candidate lists for one head set — typically a
// round's elected heads — and expires every list built so far. Until
// the next BeginEpoch, Decide(from, heads) calls passing this same
// slice (same backing array and length; Decide recognizes the armed set
// by identity, in O(1)) read their candidates from from's list. The
// caller must not modify the slice while it is armed; any other slice,
// even with equal contents, takes the scratch path. Callers whose node
// positions can change (a mobility model) must call BeginEpoch or
// InvalidateGeometry afterwards — QLEC arms every round from
// StartRound, which runs after any movement. Passing nil, or a head set
// naming a node twice (one column per node could not hold both),
// disarms the lists, and every Decide fills a scratch row instead.
//
// With more than candM heads and no decision observer, BeginEpoch
// builds the list of every sender — each node that is not in heads and
// lies above deathLine — before it returns, spread over GOMAXPROCS
// goroutines (prebuild). Other nodes, and every node of a smaller or
// observed set, get their list on their first Decide. Either way the
// list is a full pass at the node's D of that moment, and the screen
// returns the same bits from any live list (DESIGN.md §8).
func (l *Learner) BeginEpoch(heads []int, deathLine energy.Joules) {
	l.epoch++
	if l.armed {
		for _, c := range l.cols {
			l.col[c.id+1] = -1
		}
		l.armed = false
	}
	if heads == nil {
		return
	}
	n := len(l.v)
	if l.col == nil {
		l.cands = make([]candRow, n)
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
	l.set = heads
	l.cols = l.columns(l.cols, heads)
	l.kmax = 0
	for j := range l.cols {
		c := &l.cols[j]
		l.setK(c, xOf(c.bat), l.v[c.id])
	}
	l.armed = true
	if cap(l.scratch) < len(heads)+1 {
		l.scratch = make([]action, len(heads)+1)
	}
	if len(heads) > candM && l.decObs == nil {
		l.prebuild(deathLine)
	}
}

// prebuildBlock is the number of consecutive node ids a prebuild worker
// takes at a time.
const prebuildBlock = 64

// prebuild runs the first full pass of every sender's epoch (see
// BeginEpoch). Workers take blocks of node ids from a shared counter,
// since heads cluster by id and fixed shares would be uneven. They
// read the columns, the links, V, positions and batteries, and write
// only their own nodes' lists and their builder; prebuild returns after
// every worker has finished, so no Decide, Observe or setK runs beside
// them.
func (l *Learner) prebuild(deathLine energy.Joules) {
	n, k := len(l.v), len(l.cols)
	w := min(runtime.GOMAXPROCS(0), (n+prebuildBlock-1)/prebuildBlock)
	if len(l.builders) < w {
		l.builders = append(l.builders, make([]builder, w-len(l.builders))...)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := range l.builders[:w] {
		b := &l.builders[i]
		if cap(b.row) < k+1 {
			b.row = make([]action, k+1)
		}
		b.row, b.full = b.row[:k+1], 0
		if i > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				l.build(b, &next, deathLine)
			}()
		}
	}
	l.build(&l.builders[0], &next, deathLine)
	wg.Wait()
	for _, b := range l.builders[:w] {
		l.stats.full += b.full
	}
}

// build is one prebuild worker: it runs the full pass of every sender
// in the blocks it takes from next, in b's row.
func (l *Learner) build(b *builder, next *atomic.Int64, deathLine energy.Joules) {
	n := len(l.v)
	for {
		hi := int(next.Add(prebuildBlock))
		lo := hi - prebuildBlock
		if lo >= n {
			return
		}
		for i := lo; i < min(hi, n); i++ {
			bat := l.net.Nodes[i].Battery
			if l.col[i+1] >= 0 || bat.Depleted(deathLine) {
				continue
			}
			bd := l.bounds(xOf(bat), l.v[i])
			l.fullPass(&l.cands[i], b.row, i, -1, &bd)
			b.full++
		}
	}
}

// InvalidateGeometry implements cluster.GeometryInvalidator for the
// learner: node positions changed, so every list's y values are stale.
// Bumping the epoch expires the lists; each is rebuilt on its node's
// next Decide, from the head positions refreshed here.
func (l *Learner) InvalidateGeometry() {
	l.epoch++
	if l.armed {
		for j := range l.cols {
			l.cols[j].pos = l.net.Nodes[l.cols[j].id].Pos
		}
	}
}

// armedRow fills row, of length k+1, for from over the armed columns
// and returns it. A sparse link block overlays its entries on a row
// filled with the prior, in O(k + seen); a direct block is looked up
// per target, in O(k).
func (l *Learner) armedRow(row []action, from int) []action {
	targets, off, sparse := l.links.sparse(from)
	l.fillRow(row, from, l.cols, !sparse)
	for i, t := range targets {
		if c := l.col[t+1]; c >= 0 {
			row[c].p = l.links.p[off+i]
		}
	}
	return row
}

// scratchRow fills the scratch row for from over a head set that is not
// armed, looking each link up, and returns it with the set's columns.
func (l *Learner) scratchRow(from int, heads []int) ([]action, []headCol) {
	w := len(heads) + 1
	if cap(l.scratch) < w {
		l.scratch = make([]action, w)
	}
	row := l.scratch[:w]
	l.scratchCols = l.columns(l.scratchCols, heads)
	l.fillRow(row, from, l.scratchCols, true)
	return row, l.scratchCols
}

// fillRow computes row = [a(from, BS), a(from, cols[0].id), ...]: y from
// the geometry, and P looked up per target when lookup is set, else the
// prior, for the caller to overlay with the links from has observed.
func (l *Learner) fillRow(row []action, from int, cols []headCol, lookup bool) {
	p := l.params.InitialLinkP
	if lookup {
		p = l.LinkP(from, network.BSID)
	}
	row[0] = action{y: l.y(from, network.BSID), p: p}
	pos := l.net.Nodes[from].Pos
	for j := range cols {
		c := &cols[j]
		if lookup {
			p = l.LinkP(from, c.id)
		}
		row[j+1] = action{y: l.cost(pos.Dist(c.pos)), p: p}
	}
}

// columns refills dst with the columns of heads, in order, leaving k to
// the caller.
func (l *Learner) columns(dst []headCol, heads []int) []headCol {
	if cap(dst) < len(heads) {
		dst = make([]headCol, len(heads))
	}
	dst = dst[:len(heads)]
	for j, h := range heads {
		n := l.net.Nodes[h]
		dst[j] = headCol{id: h, bat: n.Battery, pos: n.Pos}
	}
	return dst
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

// Decide implements Algorithm 4 for node from: it finds the max of Q
// over the action set (every head plus the base station), refreshes
// V*(from) to it, and returns the argmax target (a head id or
// network.BSID). Ties break toward the lower id, BS last, for
// determinism. On the armed head set with no decision observer, the
// node's candidate list and a cheap upper bound rule most heads out
// before any exact evaluation (screen); the target and V are
// bit-identical to evaluating every head. With
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
	// exact evaluation: its battery drains and its V updates mid-round.
	// The decision-observer captures below consume no randomness and
	// change no arithmetic, so observed and unobserved runs stay
	// byte-identical.
	xFrom := l.x(from)
	vFrom := l.v[from]
	var rec *Decision
	if l.decObs != nil {
		rec = &Decision{Node: from, VBefore: vFrom, EpsRoll: math.NaN()}
	}
	armed := l.armed && len(heads) == len(l.set) && (len(heads) == 0 || &heads[0] == &l.set[0])
	best, bestQ, ok := 0, 0.0, false
	if armed && rec == nil {
		best, bestQ, ok = l.screen(from, xFrom, vFrom)
	}
	if !ok {
		var row []action
		cols := l.cols
		if armed {
			row = l.armedRow(l.scratch[:len(l.cols)+1], from)
		} else {
			row, cols = l.scratchRow(from, heads)
		}
		best, bestQ = l.scan(from, row, cols, xFrom, vFrom, rec)
	}
	l.setV(from, bestQ)
	chosen := best
	explored := false
	if l.params.Epsilon > 0 && l.explore != nil && len(heads) > 0 {
		roll := l.explore.Float64()
		if rec != nil {
			rec.EpsRoll = roll
		}
		if roll < l.params.Epsilon {
			others := 0
			for _, h := range heads {
				if h != from {
					others++
				}
			}
			if others > 0 {
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

// scan is the exhaustive argmax of Decide: Eq. (15) evaluated for the
// BS and then for every head other than from, in column order, each
// probe appended to rec when a decision observer is installed. It
// serves observed calls, calls whose head set is not armed, and calls
// the screen gives up on.
func (l *Learner) scan(from int, row []action, cols []headCol, xFrom, vFrom float64, rec *Decision) (int, float64) {
	best := network.BSID
	bestQ := l.qAction(row[0], xFrom, vFrom, 1, l.vBS, l.params.L)
	if rec != nil {
		rec.Candidates = append(rec.Candidates, network.BSID)
		rec.QValues = append(rec.QValues, bestQ)
	}
	for j := range cols {
		h := cols[j].id
		if h == from {
			continue
		}
		q := l.qAction(row[j+1], xFrom, vFrom, xOf(cols[j].bat), l.v[h], 0)
		if rec != nil {
			rec.Candidates = append(rec.Candidates, h)
			rec.QValues = append(rec.QValues, q)
		}
		if q > bestQ || (q == bestQ && better(h, best)) {
			bestQ = q
			best = h
		}
	}
	return best, bestQ
}

// screenSlack scales the screen's rounding allowance; see screen.
const screenSlack = 1e-9

// screen is the argmax of Decide for an armed, unobserved call: the same
// target and the same bits of max Q as scan, with exact Eq. (15)
// evaluations only where a cheap upper bound cannot rule a head out.
// In real arithmetic head j's value is
//
//	Q_j = E + c_j + p_j·(D + K_j)
//
// with c_j = −G − (β₂ + p_j·(α₂−β₂))·y_j from the row entry,
// D = (α₁−β₁)·x(from) − γ·V(from) and E = β₁·x(from) + γ·V(from) once
// per call, and K_j = α₁·x(h_j) + γ·V(h_j) per column. A column's k is
// at least K_j (headCol) and p_j ≥ 0, so s_j = c_j + p_j·(D + k_j) is at
// least Q_j − E up to rounding (bounds.reaches holds the allowance).
//
// The call reads from's candidate list (candRow), built by a full pass
// when it is not live. It evaluates the BS and the listed head with the
// largest bound exactly, and the other listed heads only when the
// second largest bound reaches the best Q so far — then each whose own
// bound does. The heads left out are bounded together: a left-out
// head's s_j(D) = s_j(d0) + p_j·(D − d0) + p_j·(k_j − k_j at the pass),
// its k has not risen since (a rise expires every list, setK), and its
// P has not changed (Observe expires the list first), so
//
//	s_j(D) ≤ b + (D − d0)·(pmax if D ≥ d0, else pmin)
//
// When that envelope reaches the best Q, a full pass rebuilds the list
// at D and the call screens it again; if the envelope (now the exact
// largest left-out bound) still reaches, every head whose own bound
// does is evaluated from the row the pass filled. Every head skipped
// has exact Q strictly below the final best, so it could neither win
// nor tie, and scan's rule (higher Q, then any head over the BS, then
// the lower id) picks the maximum of a total order that does not depend
// on which heads were evaluated or in what order. Each exact evaluation
// refreshes its column's k. ok is false when a bound or the BS value is
// not finite; the caller then scans.
func (l *Learner) screen(from int, xFrom, vFrom float64) (best int, bestQ float64, ok bool) {
	b := l.bounds(xFrom, vFrom)
	c := &l.cands[from]
	skip := l.col[from+1] - 1 // from's own column, or below 0
	full := c.stamp != l.epoch
	if full {
		l.stats.full++
		if !l.fullPass(c, l.scratch, from, skip, &b) {
			return 0, 0, false
		}
	}
	best, bestQ, rest, ok := l.screenList(c, skip, &b, xFrom, vFrom)
	if !ok || !rest {
		return best, bestQ, ok
	}
	if !full {
		l.stats.full++
		l.stats.fallback++
		if !l.fullPass(c, l.scratch, from, skip, &b) {
			return 0, 0, false
		}
		if best, bestQ, rest, ok = l.screenList(c, skip, &b, xFrom, vFrom); !ok || !rest {
			return best, bestQ, ok
		}
	}
	// Only a list that leaves heads out gets here, and its full pass
	// filled the scratch row.
	hr := l.scratch[1 : len(l.cols)+1]
	for j := range l.cols {
		if j != skip && b.reaches(b.of(hr[j], l.cols[j].k), bestQ) {
			best, bestQ = l.verify(&l.cols[j], hr[j], xFrom, vFrom, best, bestQ)
		}
	}
	return best, bestQ, true
}

// bounds holds the per-call terms of the screen: G, β₂, α₂−β₂, D and E,
// and base, the sum of the other magnitudes that either evaluation
// rounds (4·kmax covering |k_j|).
type bounds struct {
	g, b2, a2b2 float64
	d, e        float64
	base        float64
}

// bounds returns the screen's terms for a node with residual fraction
// xFrom and value vFrom.
func (l *Learner) bounds(xFrom, vFrom float64) bounds {
	pr := &l.params
	b := bounds{g: pr.G, b2: pr.Beta2, a2b2: pr.Alpha2 - pr.Beta2}
	b.d = (pr.Alpha1-pr.Beta1)*xFrom - pr.Gamma*vFrom
	b.e = pr.Beta1*xFrom + pr.Gamma*vFrom
	b.base = 1 + 2*b.g + 4*pr.Alpha1 + 2*pr.Beta1 + 4*math.Abs(b.d) + 2*math.Abs(b.e) +
		2*pr.Gamma*math.Abs(vFrom) + 4*l.kmax
	return b
}

// of is the bound s_j of a head with row entry a and column term k.
func (b *bounds) of(a action, k float64) float64 {
	return -b.g - (b.b2+a.p*b.a2b2)*a.y + a.p*(b.d+k)
}

// reaches reports whether a head with bound s may reach q. The rounding
// allowance is screenSlack·(base + |s|); it exceeds
// |fl(s_j + E) − fl(Q_j)| about 10⁵-fold, and s + allowance grows with s.
func (b *bounds) reaches(s, q float64) bool {
	return s+screenSlack*(b.base+math.Abs(s))+b.e >= q
}

// fullPass makes from's list c at b's D. With at most candM heads it
// fills the list's row directly. Otherwise it fills scratch, a row of
// at least k+1 entries, ranks every head column but from's own (skip)
// by its bound, and lists the candM highest, folding the rest into the
// envelope. It reports false, leaving the list expired, when a bound is
// not finite. The caller counts the pass.
func (l *Learner) fullPass(c *candRow, scratch []action, from, skip int, b *bounds) bool {
	c.stamp = 0 // expired until the pass completes
	c.d0 = b.d
	out := envelope{b: math.Inf(-1), pmin: math.Inf(1), pmax: math.Inf(-1)}
	k := len(l.cols)
	if k <= candM {
		l.armedRow(c.row[:k+1], from)
		c.out, c.n = out, k
		c.stamp = l.epoch
		return true
	}
	row := l.armedRow(scratch[:k+1], from)
	hr := row[1:]
	c.row[0] = row[0]
	// top holds the listed heads' bounds and columns, highest first.
	var top [candM]struct {
		s float64
		j int
	}
	n := 0
	for j := range l.cols {
		if j == skip {
			continue
		}
		s := b.of(hr[j], l.cols[j].k)
		if s-s != 0 { // NaN or ±Inf
			return false
		}
		if n == candM {
			if !(s > top[n-1].s) {
				out.leave(s, hr[j].p)
				continue
			}
			n-- // the lowest listed head is left out instead
			out.leave(top[n].s, hr[top[n].j].p)
		}
		i := n
		for ; i > 0 && s > top[i-1].s; i-- {
			top[i] = top[i-1]
		}
		top[i].s, top[i].j = s, j
		n++
	}
	for i, t := range top[:n] {
		c.row[i+1], c.col[i] = hr[t.j], int32(t.j)
	}
	c.out, c.n = out, n
	c.stamp = l.epoch
	return true
}

// screenList screens list c for an armed call (see screen), skipping
// from's own column skip: it returns the argmax over the BS and every
// listed head that may reach it, and rest true when the envelope of the
// heads left out may reach it too.
func (l *Learner) screenList(c *candRow, skip int, b *bounds, xFrom, vFrom float64) (best int, bestQ float64, rest, ok bool) {
	if c.out.b > math.Inf(-1) {
		// The envelope's b and d0 are rounded like a bound's own
		// terms; the allowance covers them for every test of the call.
		w := *b
		w.base += 4*math.Abs(c.d0) + 2*math.Abs(c.out.b)
		b = &w
	}
	hr, cols := c.row[1:c.n+1], l.cols
	whole := len(cols) <= candM
	column := func(i int) int { // the column of entry i
		if whole {
			return i
		}
		return int(c.col[i])
	}
	top, s1, s2 := -1, math.Inf(-1), math.Inf(-1)
	for i := range hr {
		j := column(i)
		if j == skip {
			continue
		}
		s := b.of(hr[i], cols[j].k)
		if s-s != 0 { // NaN or ±Inf
			return 0, 0, false, false
		}
		if s > s2 {
			if s > s1 {
				top, s1, s2 = i, s, s1
			} else {
				s2 = s
			}
		}
	}
	best, bestQ = network.BSID, l.qAction(c.row[0], xFrom, vFrom, 1, l.vBS, l.params.L)
	if bestQ-bestQ != 0 || b.base-b.base != 0 {
		return 0, 0, false, false
	}
	if top >= 0 {
		best, bestQ = l.verify(&cols[column(top)], hr[top], xFrom, vFrom, best, bestQ)
		if b.reaches(s2, bestQ) {
			for i := range hr {
				if j := column(i); i != top && j != skip && b.reaches(b.of(hr[i], cols[j].k), bestQ) {
					best, bestQ = l.verify(&cols[j], hr[i], xFrom, vFrom, best, bestQ)
				}
			}
		}
	}
	if c.out.b > math.Inf(-1) {
		dd, p := b.d-c.d0, c.out.pmax
		if dd < 0 {
			p = c.out.pmin
			l.stats.falling++
		}
		rest = b.reaches(c.out.b+dd*p, bestQ)
	}
	return best, bestQ, rest, true
}

// verify evaluates Eq. (15) exactly for column c with row entry a,
// refreshes c.k from the values read, and folds the result into the
// argmax (best, bestQ) by scan's rule.
func (l *Learner) verify(c *headCol, a action, xFrom, vFrom float64, best int, bestQ float64) (int, float64) {
	xTo, vTo := xOf(c.bat), l.v[c.id]
	l.setK(c, xTo, vTo)
	if q := l.qAction(a, xFrom, vFrom, xTo, vTo, 0); q > bestQ || (q == bestQ && better(c.id, best)) {
		return c.id, q
	}
	return best, bestQ
}

// setK sets column c's k to K for residual fraction x and value v, and
// keeps kmax at or above |k| of every armed column. A rise in an armed
// column's k ends the epoch: the candidate lists' envelopes assume no
// left-out head's k grows. QLEC raises none mid-round (heads route
// straight to the BS, and UpdateHeadValue runs after the round).
func (l *Learner) setK(c *headCol, x, v float64) {
	k := l.params.Alpha1*x + l.params.Gamma*v
	if l.armed && k > c.k {
		l.epoch++
		l.stats.raised++
	}
	c.k = k
	if k := math.Abs(k); !(k <= l.kmax) {
		l.kmax = k
	}
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
// then folds the outcome. When from's candidate list is live, a listed
// target's entry takes the new estimate too, and a new estimate for a
// head left out expires the list, whose envelope assumed the old one.
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
	if l.armed && l.cands[from].stamp == l.epoch {
		l.observeList(&l.cands[from], to, p)
	}
	if l.outObs != nil {
		r := l.rewardFailure(from, to)
		if success {
			r = l.rewardSuccess(from, to)
		}
		l.outObs(Outcome{From: from, To: to, Success: success, LinkP: p, Reward: r})
	}
}

// observeList brings live list c up to date with estimate p for target
// to.
func (l *Learner) observeList(c *candRow, to int, p float64) {
	j := l.col[to+1]
	switch {
	case j == 0:
		c.row[0].p = p
	case j > 0 && len(l.cols) <= candM: // the list is the whole row
		c.row[j].p = p
	case j > 0:
		for i, cj := range c.col[:c.n] {
			if int(cj) == j-1 {
				c.row[i+1].p = p
				return
			}
		}
		c.stamp = 0
		l.stats.observed++
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
	if l.armed {
		if j := l.col[id+1] - 1; j >= 0 { // an armed head: keep its k exact
			c := &l.cols[j]
			l.setK(c, xOf(c.bat), v)
		}
	}
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
