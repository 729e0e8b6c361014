package qlearn

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"qlec/internal/dataset"
	"qlec/internal/energy"
	"qlec/internal/geom"
	"qlec/internal/network"
	"qlec/internal/rng"
)

// fig4Heads is the §5.3 cluster count k_opt.
const fig4Heads = 272

// fig4Net builds the Fig. 4 network: the synthetic 2896-node set at
// seed 2019.
func fig4Net(tb testing.TB) *network.Network {
	tb.Helper()
	ds, err := dataset.Synthesize(dataset.DefaultSynthConfig())
	if err != nil {
		tb.Fatal(err)
	}
	w, err := network.FromPositions(ds.Positions, ds.Energies, ds.Box, ds.BS)
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// fig4Learner builds a learner at the Fig. 4 shape with a fixed set of
// 272 heads spread evenly over the ids and some link history toward
// them and the BS. It returns the learner (not armed), the heads and
// the other nodes.
func fig4Learner(tb testing.TB) (l *Learner, heads, members []int) {
	tb.Helper()
	w := fig4Net(tb)
	l, err := NewLearner(w, energy.DefaultModel(), 4000, DefaultParams())
	if err != nil {
		tb.Fatal(err)
	}
	n := w.N()
	isHead := make([]bool, n)
	for j := 0; j < fig4Heads; j++ {
		h := j * n / fig4Heads
		heads = append(heads, h)
		isHead[h] = true
	}
	for id := 0; id < n; id++ {
		if isHead[id] {
			l.Observe(id, network.BSID, id%5 != 0)
			continue
		}
		members = append(members, id)
		for j := id % 17; j < fig4Heads; j += 17 {
			l.Observe(id, heads[j], (id+j)%3 != 0)
		}
	}
	return l, heads, members
}

// fig4Repeats is the number of decisions per BenchmarkDecideFig4 op
// beyond each member's first; the §5.3 run makes about eight decisions
// per member per round.
const fig4Repeats = 16384

// BenchmarkDecideFig4 times one round's worth of routing decisions at
// the Fig. 4 shape (2896 nodes, 272 heads) through the armed candidate
// lists. Every op is the same block: arm the epoch (which makes every
// member's list in a full pass, over GOMAXPROCS workers), decide once
// for every member and then make fig4Repeats more decisions over the
// members (each reads a live list, and falls back to a full pass when
// its envelope cannot rule the heads left out). fullpass/decide is the
// number of full passes, BeginEpoch's included, per decision.
func BenchmarkDecideFig4(b *testing.B) {
	l, heads, members := fig4Learner(b)
	l.BeginEpoch(heads, 0) // sizes the lists outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	full := l.stats.full
	for i := 0; i < b.N; i++ {
		l.BeginEpoch(heads, 0)
		for _, m := range members {
			l.Decide(m, heads)
		}
		for r := 0; r < fig4Repeats; r++ {
			l.Decide(members[r*7%len(members)], heads)
		}
	}
	decisions := float64(b.N) * float64(len(members)+fig4Repeats)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/decisions, "ns/decide")
	b.ReportMetric(float64(l.stats.full-full)/decisions, "fullpass/decide")
}

// TestDecideAllocs pins Decide at zero allocations: through candidate
// lists at the Fig. 4 shape — each call the first of its member's
// epoch, served by the list BeginEpoch built, each call served by a
// live list, and each call a rebuild after InvalidateGeometry — and
// when loosened bounds make the screen evaluate every head; through the
// scratch row once the first call has sized it; and with a decision
// observer installed and then removed.
func TestDecideAllocs(t *testing.T) {
	l, heads, members := fig4Learner(t)
	full := l.stats.full
	l.BeginEpoch(heads, 0)
	if got := l.stats.full - full; got != uint64(len(members)) {
		t.Fatalf("BeginEpoch ran %d full passes, want one per member (%d)", got, len(members))
	}
	i := 0
	if a := testing.AllocsPerRun(200, func() {
		l.Decide(members[i%len(members)], heads)
		i++
	}); a != 0 {
		t.Errorf("armed Decide from lists BeginEpoch built at the Fig. 4 shape: %v allocs/op, want 0", a)
	}
	m := members[0]
	full = l.stats.full
	if a := testing.AllocsPerRun(200, func() { l.Decide(m, heads) }); a != 0 {
		t.Errorf("armed Decide from a live list: %v allocs/op, want 0", a)
	}
	if l.stats.full-full > 100 {
		t.Errorf("%d of 201 decisions of one member ran a full pass, want most served by its list", l.stats.full-full)
	}
	if a := testing.AllocsPerRun(200, func() {
		l.InvalidateGeometry()
		l.Decide(m, heads)
	}); a != 0 {
		t.Errorf("armed Decide rebuilding an expired list: %v allocs/op, want 0", a)
	}

	// k = 10⁶ is far above any head's K = α₁·x + γ·V ≤ 0.05 and any
	// row's cost, so every bound reaches the best Q and every head is
	// evaluated exactly; each exact evaluation restores its column's k.
	// Writing k here bypasses setK, so the test expires the candidate
	// lists itself, as setK does on a rise.
	const loose = 1e6
	loosen := func() {
		for j := range l.cols {
			l.cols[j].k = loose
		}
		l.kmax = loose
		l.epoch++
	}
	loosen()
	l.Decide(members[0], heads)
	for j, c := range l.cols {
		if c.k == loose {
			t.Fatalf("column %d (head %d) was not evaluated exactly under a loosened bound", j, c.id)
		}
	}
	if a := testing.AllocsPerRun(200, func() {
		loosen()
		l.Decide(members[i%len(members)], heads)
		i++
	}); a != 0 {
		t.Errorf("armed Decide evaluating every head exactly: %v allocs/op, want 0", a)
	}

	w := testNet(t, 30, 12)
	u := newTestLearner(t, w)
	small := []int{3, 9, 14, 22}
	if a := testing.AllocsPerRun(200, func() { u.Decide(5, small) }); a != 0 {
		t.Errorf("unarmed Decide: %v allocs/op, want 0", a)
	}

	u.SetDecisionObserver(func(Decision) {})
	u.Decide(5, small)
	u.SetDecisionObserver(nil)
	if a := testing.AllocsPerRun(200, func() { u.Decide(6, small) }); a != 0 {
		t.Errorf("Decide with the observer removed: %v allocs/op, want 0", a)
	}
}

// TestBeginEpochAllocs pins a repeat BeginEpoch at the Fig. 4 shape,
// which builds 2624 lists in 46 blocks over four workers, at a few
// allocations for the workers themselves (≈5–6: the goroutines'
// closures, the block counter and the WaitGroup, and now and then a
// goroutine the runtime cannot reuse), nothing per node or per block.
func TestBeginEpochAllocs(t *testing.T) {
	const procs = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	l, heads, _ := fig4Learner(t)
	l.BeginEpoch(heads, 0) // sizes the lists and the workers' rows
	const reps = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range reps {
		l.BeginEpoch(heads, 0)
	}
	runtime.ReadMemStats(&after)
	a := float64(after.Mallocs-before.Mallocs) / reps
	if a > 3*procs {
		t.Errorf("BeginEpoch at GOMAXPROCS %d: %v allocs/op, want at most %d", procs, a, 3*procs)
	}
	t.Logf("BeginEpoch at GOMAXPROCS %d: %v allocs/op", procs, a)
}

// TestPrebuiltListsMatchLazy checks the lists BeginEpoch builds, at
// GOMAXPROCS 1, 2 and 4, bit for bit against the full pass Decide runs
// for a node whose list is not live, at the same state and D: one list
// per member above the death line, and none for a head or for a member
// at or below it. V, batteries and link estimates vary across the
// nodes, so the lists differ in d0, ranking and envelope.
func TestPrebuiltListsMatchLazy(t *testing.T) {
	l, heads, members := fig4Learner(t)
	l.BeginEpoch(heads, 0)
	for j, m := range members {
		l.Decide(m, heads)
		switch j % 7 {
		case 0:
			l.net.Nodes[m].Battery.Draw(l.net.Nodes[m].Battery.Residual()) // dead
		case 1, 2:
			l.net.Nodes[m].Battery.Draw(energy.Joules(j%5) / 8)
		}
	}
	for _, h := range heads {
		l.UpdateHeadValue(h)
	}
	isHead := make([]bool, l.net.N())
	for _, h := range heads {
		isHead[h] = true
	}
	bits := math.Float64bits
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		full := l.stats.full
		l.BeginEpoch(heads, 0)
		built := 0
		for i := range l.cands {
			c, bat := &l.cands[i], l.net.Nodes[i].Battery
			if isHead[i] || bat.Depleted(0) {
				if c.stamp == l.epoch {
					t.Fatalf("GOMAXPROCS %d: node %d (head %v, residual %v) has a list", procs, i, isHead[i], bat.Residual())
				}
				continue
			}
			built++
			var want candRow
			b := l.bounds(xOf(bat), l.v[i])
			if !l.fullPass(&want, l.scratch, i, -1, &b) {
				t.Fatalf("node %d: the lazy full pass failed", i)
			}
			same := c.stamp == want.stamp && bits(c.d0) == bits(want.d0) && c.n == want.n &&
				bits(c.out.b) == bits(want.out.b) && bits(c.out.pmin) == bits(want.out.pmin) &&
				bits(c.out.pmax) == bits(want.out.pmax) && c.col == want.col
			for e := range c.row[:c.n+1] {
				same = same && bits(c.row[e].y) == bits(want.row[e].y) && bits(c.row[e].p) == bits(want.row[e].p)
			}
			if !same {
				t.Fatalf("GOMAXPROCS %d: node %d's list differs from the lazy pass:\nbuilt %+v\nlazy  %+v", procs, i, *c, want)
			}
		}
		if built == 0 || built == len(members) {
			t.Fatalf("GOMAXPROCS %d: %d of %d members above the death line, want some but not all", procs, built, len(members))
		}
		if got := l.stats.full - full; got != uint64(built) {
			t.Errorf("GOMAXPROCS %d: BeginEpoch counted %d full passes for %d lists", procs, got, built)
		}
	}
}

// TestDecideScreenTies pins the screened argmax's tie-breaking to the
// exhaustive scan's: between heads with bit-equal Q the lower id wins
// whatever the column order, and a head whose Q equals the BS's beats
// the BS.
func TestDecideScreenTies(t *testing.T) {
	m := geom.Vec3{X: 100, Y: 100, Z: 100}
	bs := geom.Vec3{X: 20, Y: 30}
	pos := []geom.Vec3{
		m,                                     // 0: the member
		m.Add(geom.Vec3{X: 10}),               // 1 and 2: mirror images about the member
		m.Add(geom.Vec3{X: -10}),              //
		m.Add(geom.Vec3{Y: 60}),               // 3: a farther head
		bs,                                    // 4: a head on the BS
		m.Add(geom.Vec3{X: 90, Y: 90, Z: 90}), // 5: a head farther than the BS
	}
	energies := []energy.Joules{5, 5, 5, 5, 5, 5}
	w, err := network.FromPositions(pos, energies, geom.Cube(200), bs)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.L = 0 // so that the head on the BS ties the BS
	learner := func(observe bool) *Learner {
		l, err := NewLearner(w, energy.DefaultModel(), 4000, p)
		if err != nil {
			t.Fatal(err)
		}
		if observe {
			l.SetDecisionObserver(func(Decision) {})
		}
		return l
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	probe := learner(false)
	if q1, q2 := probe.QValue(0, 1), probe.QValue(0, 2); !same(q1, q2) {
		t.Fatalf("mirror heads: Q = %v and %v, want bit-equal", q1, q2)
	}
	if qh, qb := probe.QValue(0, 4), probe.QValue(0, network.BSID); !same(qh, qb) {
		t.Fatalf("head on the BS: Q = %v, BS Q = %v, want bit-equal", qh, qb)
	}
	for _, c := range []struct {
		heads []int
		want  int
	}{
		{[]int{1, 2, 3}, 1},
		{[]int{2, 1, 3}, 1},
		{[]int{3, 2, 1, 5}, 1},
		{[]int{4}, 4},
		{[]int{5, 4}, 4},
	} {
		screened, scanned := learner(false), learner(true)
		screened.BeginEpoch(c.heads, 0)
		scanned.BeginEpoch(c.heads, 0)
		got, ref := screened.Decide(0, c.heads), scanned.Decide(0, c.heads)
		if got != c.want || ref != c.want {
			t.Errorf("heads %v: screened Decide = %d, exhaustive %d, want %d", c.heads, got, ref, c.want)
		}
		if !same(screened.V(0), scanned.V(0)) {
			t.Errorf("heads %v: V after Decide = %v screened, %v exhaustive", c.heads, screened.V(0), scanned.V(0))
		}
	}
}

// TestLinkStoreAllocs pins the link store's memory: NewLearner at the
// Fig. 4 shape allocates O(N) bytes, not an entry per directed pair
// (2896·2897 float64s would be 67 MB), and Observe on a link already
// seen allocates nothing, armed or not.
func TestLinkStoreAllocs(t *testing.T) {
	w := fig4Net(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := NewLearner(w, energy.DefaultModel(), 4000, DefaultParams()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	b := after.TotalAlloc - before.TotalAlloc
	if b > 1<<20 {
		t.Errorf("NewLearner at N=%d allocated %d bytes, want under 1 MB", w.N(), b)
	}
	t.Logf("NewLearner at N=%d: %d bytes", w.N(), b)

	l, heads, members := fig4Learner(t)
	m := members[0]
	for _, to := range []int{network.BSID, heads[0], heads[1]} {
		l.Observe(m, to, true)
	}
	i := 0
	observe := func() {
		l.Observe(m, heads[i%2], i%3 != 0)
		l.Observe(m, network.BSID, false)
		i++
	}
	if a := testing.AllocsPerRun(200, observe); a != 0 {
		t.Errorf("Observe on seen links: %v allocs/op, want 0", a)
	}
	l.BeginEpoch(heads, 0)
	l.Decide(m, heads) // makes m's list live, so Observe updates it too
	if a := testing.AllocsPerRun(200, observe); a != 0 {
		t.Errorf("Observe on seen links with a live list: %v allocs/op, want 0", a)
	}
}

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzDecideEpoch is the oracle for the candidate lists, the screened
// argmax and the link store: it decodes the input into a sequence of
// BeginEpoch, Decide, Observe, UpdateHeadValue, node moves with
// InvalidateGeometry, and battery draws over a small network, and runs
// it on three learners (decideEpoch). listSeeds holds inputs that reach
// each candidate-list path; TestListSeedsReachPaths pins that they do.
func FuzzDecideEpoch(f *testing.F) {
	f.Add([]byte{30, 7, 1, 0, 3, 2, 2, 9, 1, 2, 1, 9, 3, 0, 2, 1, 3, 1, 0, 2, 1, 2})
	for _, s := range listSeeds {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { decideEpoch(t, data) })
}

// decideEpoch runs the FuzzDecideEpoch input data on three learners:
// one armed by every BeginEpoch with no decision observer, so its
// Decide reads candidate lists and evaluates few heads exactly (and its
// BeginEpoch builds every member's list up front, death line 0, when
// the set has more than candM heads); one
// armed the same way with a decision observer, so its Decide evaluates
// every head; and one that is never armed (every Decide fills a scratch
// row by looking up each link). All share the network, the parameters
// and triplet exploration streams. After every operation the chosen
// targets, every V and the two observed learners' Decision records must
// be bit-equal, and every learner's estimate for every directed link
// must equal a reference map that applies the same prior-then-EWMA
// update. It returns the first learner's candidate-list counters.
//
// The third byte sets ε = 0.3 when odd, and lays the nodes out on a
// ring around node 0 when bit 1 is set. A head-set byte of 0x80 or
// more with a nonzero count arms a wide set
// instead: up to n distinct nodes with consecutive ids, so a set can
// hold more heads than a candidate list. A target byte of 0x83 or more
// that selects the fourth case draws the last Decide's return value,
// so an exploratory pick can be observed.
func decideEpoch(t *testing.T, data []byte) listStats {
	in := fuzzBytes(data)
	n := 2 + in.next()%39
	seed := uint64(in.next())
	w, err := network.Deploy(network.Deployment{N: n, Side: 200, InitialEnergy: 5}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	layout := in.next()
	if layout%2 == 1 {
		p.Epsilon = 0.3
	}
	if layout&2 != 0 {
		// A ring: node 0 at the center and the others evenly spaced
		// around it, so node 0 sees every head at one distance, and
		// the heads its candidate list leaves out are all but tied
		// with the listed ones.
		c := geom.Vec3{X: 100, Y: 100, Z: 50}
		w.Nodes[0].Pos = c
		for i := 1; i < n; i++ {
			a := 2 * math.Pi * float64(i) / float64(n-1)
			w.Nodes[i].Pos = c.Add(geom.Vec3{X: 40 * math.Cos(a), Y: 40 * math.Sin(a)})
		}
	}
	var ls [3]*Learner
	for i := range ls {
		if ls[i], err = NewLearner(w, energy.DefaultModel(), 4000, p); err != nil {
			t.Fatal(err)
		}
	}
	screened, armed, plain := ls[0], ls[1], ls[2]
	names := [...]string{"screened", "armed", "unarmed"}
	ref := map[[2]int]float64{} // the reference link estimates
	var decA, decP []Decision
	armed.SetDecisionObserver(func(d Decision) { decA = append(decA, d) })
	plain.SetDecisionObserver(func(d Decision) { decP = append(decP, d) })
	if p.Epsilon > 0 {
		for _, l := range ls {
			l.SetExploration(rng.NewNamed(seed, "explore"))
		}
	}

	// node draws an id; target draws the BS, a current or previous
	// head, the last Decide's target, or any node.
	var cur, prev []int
	last := network.BSID
	node := func() int { return in.next() % n }
	target := func() int {
		b := in.next()
		switch b % 4 {
		case 0:
			return network.BSID
		case 1:
			if len(cur) > 0 {
				return cur[in.next()%len(cur)]
			}
		case 2:
			if len(prev) > 0 {
				return prev[in.next()%len(prev)]
			}
		case 3:
			if b >= 0x80 {
				return last
			}
		}
		return node()
	}
	for op := 0; len(in) > 0; op++ {
		switch code := in.next() % 7; code {
		case 0:
			prev = cur
			cur = nil
			b := in.next()
			if k := b % 7; k > 0 && b >= 0x80 {
				first, size := node(), 1+in.next()%n
				cur = make([]int, size)
				for j := range cur {
					cur[j] = (first + j) % n
				}
				if k%2 == 0 {
					slices.Reverse(cur)
				}
			} else if k > 0 {
				cur = make([]int, k)
				for j := range cur {
					cur[j] = node()
				}
			}
			screened.BeginEpoch(cur, 0)
			armed.BeginEpoch(cur, 0)
		case 1, 2:
			heads := cur
			if code == 2 {
				heads = prev
			}
			from := node()
			s, a, b := screened.Decide(from, heads), armed.Decide(from, heads), plain.Decide(from, heads)
			if s != a || a != b {
				t.Fatalf("op %d: Decide(%d, %v) = %d screened, %d armed, %d unarmed", op, from, heads, s, a, b)
			}
			last = s
		case 3:
			from, to, ok := node(), target(), in.next()%3 != 0
			for _, l := range ls {
				l.Observe(from, to, ok)
			}
			q, seen := ref[[2]int{from, to}]
			if !seen {
				q = p.InitialLinkP
			}
			x := 0.0
			if ok {
				x = 1
			}
			ref[[2]int{from, to}] = q + p.LinkAlpha*(x-q)
		case 4:
			h := target()
			if h == network.BSID {
				h = node()
			}
			for _, l := range ls {
				l.UpdateHeadValue(h)
			}
		case 5:
			id := node()
			d := float64(in.next()) - 128
			w.Nodes[id].Pos = w.Nodes[id].Pos.Add(geom.Vec3{X: d / 4, Y: -d / 8, Z: d / 16})
			for _, l := range ls {
				l.InvalidateGeometry()
			}
		case 6:
			w.Nodes[node()].Battery.Draw(energy.Joules(in.next()) / 64)
		}
		for i := 0; i < n; i++ {
			s, a, b := screened.V(i), armed.V(i), plain.V(i)
			if math.Float64bits(s) != math.Float64bits(a) || math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("op %d: V(%d) = %v screened, %v armed, %v unarmed", op, i, s, a, b)
			}
			for to := network.BSID; to < n; to++ {
				want, seen := ref[[2]int{i, to}]
				if !seen {
					want = p.InitialLinkP
				}
				for k, l := range ls {
					if got := l.LinkP(i, to); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("op %d: LinkP(%d, %d) = %v %s, want %v", op, i, to, got, names[k], want)
					}
				}
			}
		}
		if len(decA) != len(decP) {
			t.Fatalf("op %d: %d decisions observed armed, %d unarmed", op, len(decA), len(decP))
		}
		for i := range decA {
			if !sameDecision(decA[i], decP[i]) {
				t.Fatalf("op %d: decision %d differs:\narmed   %+v\nunarmed %+v", op, i, decA[i], decP[i])
			}
		}
		decA, decP = decA[:0], decP[:0]
	}
	return screened.stats
}

// sameDecision reports whether two Decision records are bit-equal.
func sameDecision(a, b Decision) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.Node != b.Node || a.Greedy != b.Greedy || a.Chosen != b.Chosen || a.Explored != b.Explored ||
		!same(a.EpsRoll, b.EpsRoll) || !same(a.VBefore, b.VBefore) || !same(a.VAfter, b.VAfter) ||
		len(a.Candidates) != len(b.Candidates) || len(a.QValues) != len(b.QValues) {
		return false
	}
	for i := range a.Candidates {
		if a.Candidates[i] != b.Candidates[i] || !same(a.QValues[i], b.QValues[i]) {
			return false
		}
	}
	return true
}

// listSeeds are FuzzDecideEpoch inputs that reach the candidate-list
// paths; reach checks the counters each must move.
var listSeeds = []struct {
	name  string
	data  []byte
	reach func(listStats) bool
}{
	// ε = 0.3 on a ring of 22: node 0 decides among heads 21..1, its
	// ACK for the pick is a failure, and its next decision finds the
	// envelope reaching the best Q and rebuilds; without that full pass
	// it would return the wrong head.
	{"envelope-fallback", []byte{0x14, 0xcc, 0x03, 0x00, 0x82, 0x01, 0x14, 0x01, 0x00, 0x03, 0x00,
		0x83, 0x2d, 0x01},
		func(s listStats) bool { return s.fallback > 0 }},
	// A list built, then D falls below d0 before later decisions: the
	// envelope takes the p_min slope (the p_max slope would miss the
	// winner).
	{"falling-d", []byte{0x16, 0x32, 0x01, 0x00, 0x82, 0x00, 0x12, 0x01, 0x17, 0x03, 0x17, 0x83,
		0xd8, 0x64, 0x47, 0xc9, 0x17, 0x04, 0x01, 0x17, 0x01, 0x17, 0x01, 0x17},
		func(s listStats) bool { return s.falling > 0 }},
	// 20 nodes, heads 0..17; member 19 builds its list, head 7 decides
	// (its V drops to its best Q), then UpdateHeadValue(7) raises head
	// 7's V mid-epoch, which expires member 19's list: its next
	// decision is a full pass.
	{"head-value-raise", []byte{0x12, 0x00, 0, 0, 0x81, 0x00, 0x11, 0x01, 0x13, 0x01, 0x07,
		0x04, 0x01, 0x07, 0x01, 0x13},
		func(s listStats) bool { return s.raised > 0 && s.full >= 3 }},
	// A ring of 18, all heads: head 1's V falls (UpdateHeadValue), so
	// node 0's list leaves it out; head 1 then decides, which raises
	// its V back above the others' (each decides and drains its
	// battery after), so head 1 wins node 0's last decision only if
	// the raise expired the list.
	{"head-decide-raise", append(append([]byte{0x10, 0x00, 0x02, 0x00, 0x81, 0x00, 0x11,
		0x04, 0x01, 0x01, 0x01, 0x00, 0x01, 0x01}, decideAndDrain(2, 17)...), 0x01, 0x00),
		func(s listStats) bool { return s.raised > 0 }},
	// 20 nodes: member 19 first decides with no heads, which sinks
	// its V toward −l; BeginEpoch over heads 0..17 then builds its
	// list at that V. Before its first armed decision its battery is
	// drawn and UpdateHeadValue(19) raises its V, so D falls below
	// the list's d0 and the envelope takes the p_min slope: a list
	// built at epoch start meets a moved D.
	{"prebuilt-moved-d", []byte{0x12, 0x00, 0x00, 0x01, 0x13, 0x00, 0x81, 0x00, 0x11,
		0x06, 0x13, 0xff, 0x04, 0x03, 0x13, 0x01, 0x13},
		func(s listStats) bool { return s.full == 2 && s.falling > 0 }},
	// ε = 0.3, 20 nodes, heads 0..17; member 19 decides twice, the
	// second pick exploring a head its list left out, and the ACK for
	// that pick (target byte 0x83: the last Decide's target) expires
	// the list.
	{"explore-outside-list", []byte{0x12, 0x09, 0x01, 0x00, 0x81, 0x00, 0x11, 0x01, 0x13, 0x01, 0x13,
		0x03, 0x13, 0x83, 0x01},
		func(s listStats) bool { return s.observed > 0 }},
	// ε = 0.3 on a ring of 35: an ACK from node 0 for a head its list
	// left out must expire the list, or node 0's next decision misses
	// that head.
	{"observe-left-out", []byte{0x21, 0xb3, 0x03, 0x00, 0x81, 0x01, 0x21, 0x03, 0x00, 0x01, 0xe7,
		0x01, 0x01, 0x00, 0x03, 0x00, 0x01, 0x16, 0x07, 0x01},
		func(s listStats) bool { return s.observed > 0 }},
}

// decideAndDrain encodes, for each node from first to last, a Decide
// and a battery draw of 255/64 J.
func decideAndDrain(first, last byte) []byte {
	var d []byte
	for j := first; j <= last; j++ {
		d = append(d, 0x01, j, 0x06, j, 0xff)
	}
	return d
}

// TestListSeedsReachPaths pins each listSeeds input to the path it was
// made for, so the seeds keep covering the candidate lists as the
// fuzz decoding or the learner changes.
func TestListSeedsReachPaths(t *testing.T) {
	for _, s := range listSeeds {
		t.Run(s.name, func(t *testing.T) {
			if got := decideEpoch(t, s.data); !s.reach(got) {
				t.Errorf("counters %+v miss the path", got)
			}
		})
	}
}
