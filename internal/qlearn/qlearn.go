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
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"qlec/internal/energy"
	"qlec/internal/geom"
	"qlec/internal/network"
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
	// links holds the EWMA success estimate of every link its sender has
	// observed, and nothing for the rest — a missing link reads as the
	// optimistic prior. Memory is O(N + observed links) rather than one
	// entry per directed pair (DESIGN.md §8). It is the canonical link
	// state except for the candidate-list entries Observe has marked
	// dirty: those are authoritative until written back. The store
	// catches up on a sender's links before any read or update of them
	// (settle: full passes, scratch rows, LinkP, and Observe of a target
	// outside the live list), and on every list when the next epoch
	// begins (BeginEpoch).
	links linkStore
	// dirty is set while some list holds an entry the store lacks.
	dirty bool

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
	// fills a row — P as the prior overlaid with the node's observed
	// links that have a column, y from the geometry — and ranks its
	// heads, visiting them in order of k until none left can reach the
	// list (fullPass). For
	// a set of more than candM heads, BeginEpoch runs the first pass of
	// every sender's epoch, spread over GOMAXPROCS workers; Decide runs
	// one whenever a list has expired or its envelope cannot rule the
	// others out. Observe updates the listed P entries in place (see
	// links), so most Decide calls read one node's few hundred bytes
	// instead of a row of k+1 entries. Bumping epoch expires every list
	// at once; an expired list keeps its dirty entries until they are
	// written back. The lists are the learner's largest state, N·384 B
	// whatever k is (≈1.1 MB at the §5.3 shape).
	epoch uint64
	armed bool
	set   []int     // the caller's head slice, recognized by identity (BeginEpoch)
	cols  []headCol // cols[j] describes heads[j], column j+1 of a row
	kmax  float64   // at least |k| of every armed column
	col   []int     // target id+1 → its column in a row (BS 0, heads 1..k), −1 for the rest
	cands []candRow // one per node

	// ord is the order in which a full pass over more than candM heads
	// visits them: the armed columns by their k when BeginEpoch armed
	// them (k*), highest first, ties by column. at[j] is column j's place
	// in ord, and reach the largest coordinate magnitude of the armed
	// heads. While ordered holds, k* bounds the k of every column, and a
	// pass may stop before the last head (fullPass); a rise in a k, or a
	// k that is not finite, voids the order until the next BeginEpoch.
	ord     []ranked
	at      []int32
	reach   float64
	ordered bool

	// scratch holds the row of the current Decide call when it needs
	// one — a full pass, an observed call, or a head set that is not
	// armed — and scratchCols that unarmed set's columns.
	scratch     []action
	scratchCols []headCol
	// builders holds one scratch row per BeginEpoch worker.
	builders []builder

	stats listStats

	updates  uint64
	maxDelta *deltaWindow

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
// describes the heads left out. Bit e of dirty is set when Observe has
// updated entry e and the link store does not have the new estimate
// yet; it outlives the stamp, until the entry is written back. 48
// bytes of header, 17 entries of 16 and candM columns of 4.
type candRow struct {
	stamp uint64
	d0    float64
	out   envelope
	n     int32
	dirty uint32
	row   [candM + 1]action
	col   [candM]int32
}

// envelope describes the heads a candidate list leaves out: their
// largest bound b at d0 (−Inf when none is left out) and the range of
// their P.
type envelope struct{ b, pmin, pmax float64 }

// leave folds a head left out, with finite bound s and link estimate
// p, into e. The built-in min and max order −0 below +0, so e does not
// depend on the order in which heads are folded.
func (e *envelope) leave(s, p float64) {
	e.b = max(e.b, s)
	e.pmin = min(e.pmin, p)
	e.pmax = max(e.pmax, p)
}

// ranked is one place of the order of a full pass: column j, and its k
// when the order was made.
type ranked struct {
	k float64
	j int32
}

// builder is one BeginEpoch worker's scratch: a row of k+1 entries and
// the counts of the full passes it ran.
type builder struct {
	row   []action
	stats listStats
}

// listStats counts candidate-list events for tests and benchmarks.
type listStats struct {
	full      uint64 // full passes, BeginEpoch's included
	fallback  uint64 // full passes forced by the envelope of a live list
	falling   uint64 // envelope tests on the p_min slope (D below d0)
	observed  uint64 // lists expired by Observe
	raised    uint64 // epochs ended by a rise in an armed column's k
	settled   uint64 // dirty lists written back before their node's links were read or written
	ended     uint64 // dirty lists written back when an epoch begins, or just before (WriteBackBeside)
	visited   uint64 // heads whose bound a full pass over more than candM heads computed
	stopped   uint64 // such passes that stopped before the last place of ord
	unordered uint64 // such passes that could not stop early (see fullPass)
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
	l.settle(from)
	return l.linkP(from, to)
}

// linkP is LinkP from the store alone; the caller has settled from.
func (l *Learner) linkP(from, to int) float64 {
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

// qAction evaluates Eq. (15)+(16) for one action-row entry: the
// from-side invariants — x(from) and V*(from), identical for every
// action probed by one Decide call — and the target's x and V are
// supplied by the caller, and penalty is Eq. (19)'s l for the BS action
// and 0 for a head. The arithmetic is term-for-term the same expression
// as composing rewardSuccess and rewardFailure (subtracting a zero
// penalty leaves every value's bits unchanged), so results stay
// byte-identical (the determinism-preservation rule of DESIGN.md §8);
// the transmission cost y is evaluated once instead of once per reward
// term.
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
// With more than candM heads BeginEpoch orders the columns for the
// full passes (order), and with no decision observer it also builds
// the list of every sender — each node that is not in heads and lies
// above deathLine — before it returns, spread over GOMAXPROCS
// goroutines (prebuild). Other nodes, and every node of a smaller or
// observed set, get their list on their first Decide. Either way the
// list is a full pass at the node's D of that moment, and the screen
// returns the same bits from any live list (DESIGN.md §8).
//
// BeginEpoch first writes every dirty list entry back to the link
// store, since the columns it re-arms are what map entries to targets.
func (l *Learner) BeginEpoch(heads []int, deathLine energy.Joules) {
	if l.dirty {
		l.writeBack()
	}
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
	if len(heads) > candM {
		l.order()
		if l.decObs == nil {
			l.prebuild(deathLine)
		}
	}
}

// order fills ord and at for the armed columns, sorted by k when every
// k is finite, and sets ordered to whether they are; it also sets reach.
func (l *Learner) order() {
	k := len(l.cols)
	if cap(l.ord) < k {
		l.ord, l.at = make([]ranked, k), make([]int32, k)
	}
	l.ord, l.at = l.ord[:k], l.at[:k]
	l.ordered = true
	for j := range l.cols {
		kj := l.cols[j].k
		l.ord[j] = ranked{k: kj, j: int32(j)}
		l.ordered = l.ordered && kj-kj == 0
	}
	if l.ordered {
		slices.SortFunc(l.ord, func(a, b ranked) int {
			return cmp.Or(cmp.Compare(b.k, a.k), cmp.Compare(a.j, b.j))
		})
	}
	for i, o := range l.ord {
		l.at[o.j] = int32(i)
	}
	l.reachHeads()
}

// reachHeads sets reach to the largest coordinate magnitude of the
// armed heads (NaN when one is NaN).
func (l *Learner) reachHeads() {
	l.reach = 0
	for j := range l.cols {
		p := l.cols[j].pos
		l.reach = max(l.reach, math.Abs(p.X), math.Abs(p.Y), math.Abs(p.Z))
	}
}

// finiteHops reports whether every hop from a node at pos to an armed
// head costs a finite y: no coordinate exceeds r in magnitude, so no
// hop is longer than 4r, and the cost only grows with the distance.
func (l *Learner) finiteHops(pos geom.Vec3) bool {
	r := max(l.reach, math.Abs(pos.X), math.Abs(pos.Y), math.Abs(pos.Z))
	return l.cost(4*r) < math.Inf(1)
}

// writeBack writes every dirty list back to the link store, lists that
// expired mid-epoch included.
func (l *Learner) writeBack() {
	for i := range l.cands {
		if l.cands[i].dirty != 0 {
			l.flush(i)
			l.stats.ended++
		}
	}
	l.dirty = false
}

// WriteBackBeside runs f on the calling goroutine and meanwhile, when a
// candidate list is dirty and the head set armed last was wider than a
// list, writes the lists back to the link store on a goroutine of its
// own, as the next BeginEpoch would do first; it returns when both are
// done. f must not use the learner. QLEC runs its head election as f.
func (l *Learner) WriteBackBeside(f func()) {
	if !l.dirty || len(l.cols) <= candM {
		f()
		return
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.writeBack()
	}()
	f()
	wg.Wait()
}

// settle writes from's list back to the link store if it is dirty,
// before the store's estimates for from are read or updated.
func (l *Learner) settle(from int) {
	if from < len(l.cands) && l.cands[from].dirty != 0 {
		l.flush(from)
		l.stats.settled++
	}
}

// flush stores each dirty entry of from's list under its target and
// clears the list's dirty bits.
func (l *Learner) flush(from int) {
	c := &l.cands[from]
	for d := c.dirty; d != 0; d &= d - 1 {
		e := bits.TrailingZeros32(d)
		slot, _ := l.links.slot(from, l.target(c, e))
		*slot = c.row[e].p
	}
	c.dirty = 0
}

// target returns the id of entry e of list c under the armed columns:
// the BS for entry 0, else the head of the entry's column.
func (l *Learner) target(c *candRow, e int) int {
	if e == 0 {
		return network.BSID
	}
	j := e - 1
	if len(l.cols) > candM {
		j = int(c.col[j])
	}
	return l.cols[j].id
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
		b.row, b.stats = b.row[:k+1], listStats{}
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
	for i := range l.builders[:w] {
		b := &l.builders[i].stats
		l.stats.full += b.full
		l.stats.visited += b.visited
		l.stats.stopped += b.stopped
		l.stats.unordered += b.unordered
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
			l.fullPass(&l.cands[i], b.row, i, -1, &bd, &b.stats)
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
		l.reachHeads()
	}
}

// armedRow fills row, of length k+1, for from over the armed columns
// and returns it, settling from's list first.
func (l *Learner) armedRow(row []action, from int) []action {
	l.fillP(row, from)
	row[0].y = l.y(from, network.BSID)
	pos := l.net.Nodes[from].Pos
	for j := range l.cols {
		row[j+1].y = l.cost(pos.Dist(l.cols[j].pos))
	}
	return row
}

// fillP sets the P of every entry of row, of length k+1, for from over
// the armed columns, settling from's list first. A sparse link block
// overlays its entries on the prior, in O(k + seen), and fillP returns
// its targets and slab offset as linkStore.sparse does; a direct block
// is looked up per target, in O(k). inRange is false when an observed
// link to an armed target holds a P outside [0,1].
func (l *Learner) fillP(row []action, from int) (targets []int32, off int, sparse, inRange bool) {
	l.settle(from)
	targets, off, sparse = l.links.sparse(from)
	inRange = true
	if !sparse {
		row[0].p = l.linkP(from, network.BSID)
		for j := range l.cols {
			p := l.linkP(from, l.cols[j].id)
			row[j+1].p = p
			inRange = inRange && p >= 0 && p <= 1
		}
		return targets, off, sparse, inRange
	}
	for j := range row {
		row[j].p = l.params.InitialLinkP
	}
	for i, t := range targets {
		if c := l.col[t+1]; c >= 0 {
			p := l.links.p[off+i]
			row[c].p = p
			inRange = inRange && p >= 0 && p <= 1
		}
	}
	return targets, off, sparse, inRange
}

// scratchRow fills the scratch row for from over a head set that is not
// armed, looking each link up, and returns it with the set's columns.
func (l *Learner) scratchRow(from int, heads []int) ([]action, []headCol) {
	l.settle(from)
	w := len(heads) + 1
	if cap(l.scratch) < w {
		l.scratch = make([]action, w)
	}
	row := l.scratch[:w]
	l.scratchCols = l.columns(l.scratchCols, heads)
	l.fillRow(row, from, l.scratchCols)
	return row, l.scratchCols
}

// fillRow computes row = [a(from, BS), a(from, cols[0].id), ...]: y from
// the geometry, and P looked up per target. The caller has settled from.
func (l *Learner) fillRow(row []action, from int, cols []headCol) {
	row[0] = action{y: l.y(from, network.BSID), p: l.linkP(from, network.BSID)}
	pos := l.net.Nodes[from].Pos
	for j := range cols {
		c := &cols[j]
		row[j+1] = action{y: l.cost(pos.Dist(c.pos)), p: l.linkP(from, c.id)}
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

// Decide implements Algorithm 4 for node from: it finds the max of Q
// over the action set (every head plus the base station), refreshes
// V*(from) to it, and returns the argmax target (a head id or
// network.BSID). Ties break toward the lower id, BS last, for
// determinism. On the armed head set with no decision observer, the
// node's candidate list and a cheap upper bound rule most heads out
// before any exact evaluation (screen); the target and V are
// bit-identical to evaluating every head. Like the paper's Algorithm
// 4, it is purely greedy.
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
		rec = &Decision{Node: from, VBefore: vFrom}
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
	if rec != nil {
		rec.Chosen = best
		rec.VAfter = bestQ
		l.decObs(*rec)
	}
	return best
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
	var m int // the places of ord the last full pass visited
	if full {
		if m, ok = l.fullPass(c, l.scratch, from, skip, &b, &l.stats); !ok {
			return 0, 0, false
		}
	}
	best, bestQ, rest, ok := l.screenList(c, skip, &b, xFrom, vFrom)
	if !ok || !rest {
		return best, bestQ, ok
	}
	if !full {
		l.stats.fallback++
		if m, ok = l.fullPass(c, l.scratch, from, skip, &b, &l.stats); !ok {
			return 0, 0, false
		}
		if best, bestQ, rest, ok = l.screenList(c, skip, &b, xFrom, vFrom); !ok || !rest {
			return best, bestQ, ok
		}
	}
	// Only a list that leaves heads out gets here. Its full pass filled
	// the scratch row's P, and y for the heads at the first m places of
	// ord; the loop fills in the y of the others.
	hr := l.scratch[1 : len(l.cols)+1]
	pos := l.net.Nodes[from].Pos
	for j := range l.cols {
		if j == skip {
			continue
		}
		a := hr[j]
		if int(l.at[j]) >= m {
			a.y = l.cost(pos.Dist(l.cols[j].pos))
		}
		if b.reaches(b.of(a, l.cols[j].k), bestQ) {
			best, bestQ = l.verify(&l.cols[j], a, xFrom, vFrom, best, bestQ)
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

// yBatch is the number of heads whose y a full pass computes ahead of
// ranking them, so that the square roots and divisions of a batch
// overlap.
const yBatch = 8

// fullPass makes from's list c at b's D, counts the pass in st, and
// returns how many places of ord it visited. With at most candM heads it
// fills the list's row directly. Otherwise it fills row, of at least
// k+1 entries, with every P and with the y of the heads it visits. It
// visits the head columns but from's own (skip) in ord order and lists
// the candM with the highest bounds, ranked by (s descending, column
// ascending) — the order a scan in column order makes — folding the
// rest into the envelope. It stops at the first place m where
//
//	fl(−G + max(0, fl(D + k*_m))) < b
//
// with b the envelope's so far. Every head at m or later has c·y ≥ 0,
// P in [0,1] and k ≤ k*_m, and IEEE rounding is monotone, so its bound
// is at most the left side: it could neither enter the list nor raise
// b. Their P still widen the envelope (foldRest). So the list and its
// envelope are bit-identical to a pass over every head. The stop is off
// (st.unordered) unless ordered holds, D is finite, every observed P
// is in [0,1] and no hop from from costs a non-finite y. It reports
// false, leaving the list expired, when a bound it computes is not
// finite.
func (l *Learner) fullPass(c *candRow, row []action, from, skip int, b *bounds, st *listStats) (int, bool) {
	st.full++
	c.stamp = 0 // expired until the pass completes
	c.d0 = b.d
	out := envelope{b: math.Inf(-1), pmin: math.Inf(1), pmax: math.Inf(-1)}
	k := len(l.cols)
	if k <= candM {
		l.armedRow(c.row[:k+1], from)
		c.out, c.n = out, int32(k)
		c.stamp = l.epoch
		return k, true
	}
	row = row[:k+1]
	targets, off, sparse, inRange := l.fillP(row, from)
	row[0].y = l.y(from, network.BSID)
	c.row[0] = row[0]
	hr := row[1:]
	pos := l.net.Nodes[from].Pos
	stop := l.ordered && inRange && b.d-b.d == 0 && l.finiteHops(pos)
	if !stop {
		st.unordered++
	}
	// top holds the listed heads' bounds and columns, highest first.
	var top [candM]struct {
		s float64
		j int
	}
	n, m := 0, k
visit:
	for lo := 0; lo < k; lo += yBatch {
		batch := l.ord[lo:min(lo+yBatch, k)]
		for _, o := range batch {
			hr[o.j].y = l.cost(pos.Dist(l.cols[o.j].pos))
		}
		for i, o := range batch {
			if stop && -b.g+max(0, b.d+o.k) < out.b {
				m = lo + i
				break visit
			}
			j := int(o.j)
			if j == skip {
				continue
			}
			s := b.of(hr[j], l.cols[j].k)
			if s-s != 0 { // NaN or ±Inf
				return 0, false
			}
			st.visited++
			if n == candM {
				if t := top[n-1]; !(s > t.s || s == t.s && j < t.j) {
					out.leave(s, hr[j].p)
					continue
				}
				n-- // the lowest listed head is left out instead
				out.leave(top[n].s, hr[top[n].j].p)
			}
			i := n
			for ; i > 0 && (s > top[i-1].s || s == top[i-1].s && j < top[i-1].j); i-- {
				top[i] = top[i-1]
			}
			top[i].s, top[i].j = s, j
			n++
		}
	}
	if m < k {
		st.stopped++
		l.foldRest(&out, hr, m, skip, targets, off, sparse)
	}
	for i, t := range top[:n] {
		c.row[i+1], c.col[i] = hr[t.j], int32(t.j)
	}
	c.out, c.n = out, int32(n)
	c.stamp = l.epoch
	return m, true
}

// foldRest widens out's range of P by the heads at places m and later of
// ord but from's own column skip, which a pass did not visit. From a
// sparse block (targets at slab offset off) it takes each observed link
// to such a head, and the prior when some such head has none; from a
// direct one, each such head's entry of hr.
func (l *Learner) foldRest(out *envelope, hr []action, m, skip int, targets []int32, off int, sparse bool) {
	none := math.Inf(-1) // a head not visited leaves b as it is
	if !sparse {
		for _, o := range l.ord[m:] {
			if int(o.j) != skip {
				out.leave(none, hr[o.j].p)
			}
		}
		return
	}
	left := len(l.ord) - m
	if skip >= 0 && int(l.at[skip]) >= m {
		left--
	}
	for i, t := range targets {
		if j := l.col[t+1] - 1; j >= 0 && j != skip && int(l.at[j]) >= m {
			out.leave(none, l.links.p[off+i])
			left--
		}
	}
	if left > 0 {
		out.leave(none, l.params.InitialLinkP)
	}
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
// left-out head's k grows. It also voids the order of the full passes,
// as does a k that is not finite. QLEC raises none mid-round (heads
// route straight to the BS, and UpdateHeadValue runs after the round).
func (l *Learner) setK(c *headCol, x, v float64) {
	k := l.params.Alpha1*x + l.params.Gamma*v
	if l.armed && !(k <= c.k) {
		if k > c.k {
			l.epoch++
			l.stats.raised++
		}
		l.ordered = false
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
// then folds the outcome. When from's candidate list is live and lists
// the target (its BS entry, or a listed head), the update applies to
// that entry alone, which is marked dirty and becomes the authoritative
// estimate until it is written back (see Learner.links); the link store
// is not touched. Any other target is updated in the store, after
// from's dirty entries are written back, and a new estimate for a head
// the live list left out expires the list, whose envelope assumed the
// old one.
func (l *Learner) Observe(from, to int, success bool) {
	x := 0.0
	if success {
		x = 1
	}
	var slot *float64
	if e := l.entry(from, to); e >= 0 {
		c := &l.cands[from]
		slot = &c.row[e].p
		c.dirty |= 1 << e
		l.dirty = true
	} else {
		l.settle(from)
		var seen bool
		if slot, seen = l.links.slot(from, to); !seen {
			*slot = l.params.InitialLinkP
		}
	}
	p := *slot
	p += l.params.LinkAlpha * (x - p)
	*slot = p
	if l.outObs != nil {
		r := l.rewardFailure(from, to)
		if success {
			r = l.rewardSuccess(from, to)
		}
		l.outObs(Outcome{From: from, To: to, Success: success, LinkP: p, Reward: r})
	}
}

// entry returns the index of target to's entry in from's candidate
// list when the list is live and holds one, and −1 otherwise. A live
// list that leaves out the armed head to expires.
func (l *Learner) entry(from, to int) int {
	if !l.armed || l.cands[from].stamp != l.epoch {
		return -1
	}
	c := &l.cands[from]
	j := l.col[to+1]
	switch {
	case j == 0:
		return 0
	case j > 0 && len(l.cols) <= candM: // the list is the whole row
		return j
	case j > 0:
		for i, cj := range c.col[:c.n] {
			if int(cj) == j-1 {
				return i + 1
			}
		}
		c.stamp = 0
		l.stats.observed++
	}
	return -1
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
	l.maxDelta.push(delta)
	if l.armed {
		if j := l.col[id+1] - 1; j >= 0 { // an armed head: keep its k exact
			c := &l.cols[j]
			l.setK(c, xOf(c.bat), v)
		}
	}
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
