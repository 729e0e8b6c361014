package qlearn

import (
	"cmp"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"testing"
	"unsafe"

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

// fig4Spread is fig4Learner with V spread the way a Fig. 4 run spreads
// it by round 10, armed with fig4Learner's head set: a member's V from
// −0.4 to −0.9 (a run's D ranges over 0.4–0.8 between the deciles), a
// head's from −0.2 to −0.7, and one head in 25 down to −4.7 (a run's k
// ranges over −0.15 to −0.6 with a tail to −4.4). With every V at 0, as
// in fig4Learner, the columns' k all but tie, and a full pass can stop
// no earlier than the last head. It returns the learner, the heads and
// the other nodes.
func fig4Spread(tb testing.TB) (l *Learner, heads, members []int) {
	tb.Helper()
	l, heads, members = fig4Learner(tb)
	r := rng.New(10)
	for _, m := range members {
		l.v[m] = -0.4 - 0.5*r.Float64()
	}
	for j, h := range heads {
		if j%25 == 0 {
			l.v[h] = -0.7 - 4*r.Float64()
		} else {
			l.v[h] = -0.2 - 0.5*r.Float64()
		}
	}
	l.BeginEpoch(heads, 0)
	return l, heads, members
}

// BenchmarkBeginEpochFig4 times BeginEpoch at the Fig. 4 shape (2896
// nodes, 272 heads) on fig4Spread's state: every op arms the same set
// and runs the full pass of every member, over GOMAXPROCS workers, on
// the same V, batteries and links. ns/pass is the time per list built
// and visited/pass the heads whose bound a pass computed, of 272.
func BenchmarkBeginEpochFig4(b *testing.B) {
	l, heads, _ := fig4Spread(b)
	b.ReportAllocs()
	b.ResetTimer()
	full, visited := l.stats.full, l.stats.visited
	for i := 0; i < b.N; i++ {
		l.BeginEpoch(heads, 0)
	}
	passes := float64(l.stats.full - full)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/passes, "ns/pass")
	b.ReportMetric(float64(l.stats.visited-visited)/passes, "visited/pass")
}

// fig4Repeats is the number of decisions per BenchmarkDecideFig4 op
// beyond each member's first; the §5.3 run makes about eight decisions
// per member per round.
const fig4Repeats = 16384

// BenchmarkDecideFig4 times one round's worth of routing decisions at
// the Fig. 4 shape (2896 nodes, 272 heads) through the armed candidate
// lists, on fig4Spread's state, where a full pass can stop early. Every
// op is the same block: arm the epoch (which makes every member's list
// in a full pass, over GOMAXPROCS workers), decide once for every
// member and then make fig4Repeats more decisions over the members
// (each reads a live list, and falls back to a full pass when its
// envelope cannot rule the heads left out). fullpass/decide is the
// number of full passes, BeginEpoch's included, per decision.
func BenchmarkDecideFig4(b *testing.B) {
	l, heads, members := fig4Spread(b) // armed: the lists are sized outside the timed loop
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
// lists at the Fig. 4 shape, on fig4Spread's state — each call the first of its member's
// epoch, served by the list BeginEpoch built, each call served by a
// live list, and each call a rebuild after InvalidateGeometry — and
// when loosened bounds make the screen evaluate every head; through the
// scratch row once the first call has sized it; and with a decision
// observer installed and then removed.
func TestDecideAllocs(t *testing.T) {
	l, heads, members := fig4Spread(t)
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
// GOMAXPROCS 1, 2 and 4, bit for bit (all but the dirty bits) against
// columnPass, the scan in column order the order-and-bound pass
// replaced, at the same state and D: one list per member above the
// death line, and none for a head or for a member at or below it. On
// fig4Spread's state V, batteries and link estimates vary across the
// nodes, so the lists differ in d0, ranking and envelope, and the
// columns' k spread enough for most passes to stop early. The first
// BeginEpoch also writes back the estimates the previous epoch's ACKs
// left in the lists, so its lists are built from them.
func TestPrebuiltListsMatchLazy(t *testing.T) {
	l, heads, members := fig4Spread(t)
	for j, m := range members {
		l.Decide(m, heads)
		l.Observe(m, network.BSID, j%2 == 0)
		l.Observe(m, heads[j%fig4Heads], j%3 != 0) // listed, or left out
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
	if !l.dirty {
		t.Fatal("no list holds an estimate the link store lacks")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		full, stopped := l.stats.full, l.stats.stopped
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
			if !l.columnPass(&want, i, -1, &b) {
				t.Fatalf("node %d: the column-order pass failed", i)
			}
			if !sameList(c, &want) {
				t.Fatalf("GOMAXPROCS %d: node %d's list differs from the column-order pass:\nbuilt  %+v\ncolumn %+v", procs, i, *c, want)
			}
		}
		if built == 0 || built == len(members) {
			t.Fatalf("GOMAXPROCS %d: %d of %d members above the death line, want some but not all", procs, built, len(members))
		}
		if got := l.stats.full - full; got != uint64(built) {
			t.Errorf("GOMAXPROCS %d: BeginEpoch counted %d full passes for %d lists", procs, got, built)
		}
		if got := l.stats.stopped - stopped; 2*got < uint64(built) {
			t.Errorf("GOMAXPROCS %d: %d of %d passes stopped early, want most", procs, got, built)
		}
	}
}

// columnPass is the reference for fullPass over more than candM heads:
// the scan in column order that the order-and-bound pass replaced. It
// makes list c from a fresh row, with each link looked up in the store
// (so it matches fullPass only for a list that is not dirty), ranks
// every head column but skip by insertion — a later column enters only
// with a strictly higher bound — and folds the rest into the envelope.
// It reports false when a bound is not finite.
func (l *Learner) columnPass(c *candRow, from, skip int, b *bounds) bool {
	row := make([]action, len(l.cols)+1)
	l.fillRow(row, from, l.cols)
	out := envelope{b: math.Inf(-1), pmin: math.Inf(1), pmax: math.Inf(-1)}
	var top [candM]struct {
		s float64
		j int
	}
	n := 0
	for j := range l.cols {
		if j == skip {
			continue
		}
		s := b.of(row[j+1], l.cols[j].k)
		if s-s != 0 {
			return false
		}
		if n == candM {
			if !(s > top[n-1].s) {
				out.leave(s, row[j+1].p)
				continue
			}
			n--
			out.leave(top[n].s, row[top[n].j+1].p)
		}
		i := n
		for ; i > 0 && s > top[i-1].s; i-- {
			top[i] = top[i-1]
		}
		top[i].s, top[i].j = s, j
		n++
	}
	*c = candRow{stamp: l.epoch, d0: b.d, out: out, n: int32(n)}
	c.row[0] = row[0]
	for i, t := range top[:n] {
		c.row[i+1], c.col[i] = row[t.j+1], int32(t.j)
	}
	return true
}

// sameList reports whether two lists over more than candM heads agree
// bit for bit, dirty bits aside.
func sameList(a, b *candRow) bool {
	f := math.Float64bits
	same := a.stamp == b.stamp && f(a.d0) == f(b.d0) && a.n == b.n &&
		f(a.out.b) == f(b.out.b) && f(a.out.pmin) == f(b.out.pmin) && f(a.out.pmax) == f(b.out.pmax) &&
		slices.Equal(a.col[:a.n], b.col[:b.n])
	for e := range a.row[:a.n+1] {
		same = same && f(a.row[e].y) == f(b.row[e].y) && f(a.row[e].p) == f(b.row[e].p)
	}
	return same
}

// TestCandRowSize pins a candidate list at 384 bytes, six 64-byte cache
// lines: the dirty bits share a word with the entry count.
func TestCandRowSize(t *testing.T) {
	if got := unsafe.Sizeof(candRow{}); got != 384 {
		t.Errorf("candRow is %d bytes, want 384", got)
	}
}

// TestWriteBackMatchesEager runs rounds of a QLEC-like sequence — arm a
// set of 30 heads (wider than a list, so BeginEpoch prebuilds the
// lists), decide for every member, observe the outcome and two more
// links, update the heads' V, pick the next set, BeginEpoch over it —
// on a learner with candidate lists and on one whose decision observer
// keeps it eager (every ACK goes straight to its link store). As QLEC
// does, the first learner picks the next set inside WriteBackBeside,
// so its lists are written back on another goroutine meanwhile.
// Decisions and V must match, and after each BeginEpoch every list
// must be written back and the link store must hold, for every (node,
// target), the eager learner's estimate.
func TestWriteBackMatchesEager(t *testing.T) {
	const n, k = 200, 30
	w := testNet(t, n, 5)
	lists, eager := newTestLearner(t, w), newTestLearner(t, w)
	eager.SetDecisionObserver(func(Decision) {})
	ls := [...]*Learner{lists, eager}
	next := func(r int) []int {
		heads := make([]int, k)
		for j := range heads {
			heads[j] = (r*37 + j*6) % n
		}
		return heads
	}
	heads := next(0)
	for _, l := range ls {
		l.BeginEpoch(heads, 0)
	}
	for r := 1; r <= 6; r++ {
		isHead := make([]bool, n)
		for _, h := range heads {
			isHead[h] = true
		}
		for m := 0; m < n; m++ {
			if isHead[m] {
				continue
			}
			for rep := range 2 {
				got, want := lists.Decide(m, heads), eager.Decide(m, heads)
				if got != want || lists.V(m) != eager.V(m) {
					t.Fatalf("round %d: Decide(%d) = %d with lists, %d eager", r, m, got, want)
				}
				for _, l := range ls {
					l.Observe(m, got, (m+r+rep)%3 != 0)
					l.Observe(m, network.BSID, (m+r)%4 != 0)
					l.Observe(m, heads[(m*7+r+rep)%k], (m+rep)%2 == 0)
				}
			}
		}
		for _, h := range heads {
			for _, l := range ls {
				l.UpdateHeadValue(h)
			}
		}
		if !lists.dirty {
			t.Fatalf("round %d: no list holds an estimate the link store lacks", r)
		}
		lists.WriteBackBeside(func() { heads = next(r) })
		if lists.dirty {
			t.Fatalf("round %d: lists still dirty after WriteBackBeside", r)
		}
		for _, l := range ls {
			l.BeginEpoch(heads, 0)
		}
		for i := range lists.cands {
			if lists.cands[i].dirty != 0 {
				t.Fatalf("round %d: node %d's list is dirty after BeginEpoch", r, i)
			}
		}
		for from := 0; from < n; from++ {
			for to := network.BSID; to < n; to++ {
				if got, want := lists.linkP(from, to), eager.LinkP(from, to); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("round %d: link (%d, %d) = %v in the store, %v eager", r, from, to, got, want)
				}
			}
		}
	}
	if lists.stats.ended == 0 {
		t.Error("no list was written back")
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
// row by looking up each link). All share the network and the
// parameters. After every operation the chosen
// targets, every V and the two observed learners' Decision records must
// be bit-equal, and every learner's estimate for every directed link
// must equal a reference map that applies the same prior-then-EWMA
// update. The estimates are read with peekLinkP, which writes no
// candidate list back, so dirty lists live on from one operation to
// the next. Only the second learner writes every ACK to its link store
// at once (its Decide builds no lists), so it is the eager reference
// for the first learner's write-back. At the end every LinkP must equal
// the map. While a set of more than candM heads is armed, checkPasses
// also holds the first learner's full pass to columnPass after every
// operation. It returns what the run reached (epochReach).
//
// The third byte lays the nodes out on a ring around node 0 when bit 1
// is set, and then puts every node on node 0's position when bit 2 is
// set; its other bits are unused. A head-set byte of 0x80 or
// more with a nonzero count arms a wide set
// instead: up to n distinct nodes with consecutive ids, so a set can
// hold more heads than a candidate list. A target byte of 0x83 or
// more that selects the fourth case draws the last Decide's return
// value. An outcome byte of
// 0x80 or more reads the observed link back with LinkP at once.
func decideEpoch(t *testing.T, data []byte) epochReach {
	in := fuzzBytes(data)
	n := 2 + in.next()%39
	seed := uint64(in.next())
	w, err := network.Deploy(network.Deployment{N: n, Side: 200, InitialEnergy: 5}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	layout := in.next()
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
	if layout&4 != 0 {
		// A stack: every hop between nodes costs y = 0, so a head's
		// bound is −G + P·(D + k), which can equal a pass's stop bound.
		for i := 1; i < n; i++ {
			w.Nodes[i].Pos = w.Nodes[0].Pos
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
	// checkLinks compares, with read, every learner's estimate for
	// every link from the senders in [lo, hi) with ref.
	checkLinks := func(op, lo, hi int, read func(*Learner, int, int) float64) {
		t.Helper()
		for i := lo; i < hi; i++ {
			for to := network.BSID; to < n; to++ {
				want, seen := ref[[2]int{i, to}]
				if !seen {
					want = p.InitialLinkP
				}
				for k, l := range ls {
					if got := read(l, i, to); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("op %d: estimate of link (%d, %d) = %v %s, want %v", op, i, to, got, names[k], want)
					}
				}
			}
		}
	}
	var reach epochReach
	row := make([]action, n+1)
	// checkPasses runs the first learner's full pass, at the state of the
	// moment, for every sender whose list is not dirty (the pass would
	// write it back), and compares it bit for bit with columnPass; after
	// a BeginEpoch (began) it compares every live list too, which it has
	// just built. It counts in reach the passes that met a stop bound
	// equal to the envelope's b and those whose envelope a head they did
	// not visit widened.
	checkPasses := func(op int, began bool) {
		t.Helper()
		l := screened
		k := len(l.cols)
		if !l.armed || k <= candM {
			return
		}
		for i := 0; i < n; i++ {
			c := &l.cands[i]
			if c.dirty != 0 {
				continue
			}
			skip := l.col[i+1] - 1
			b := l.bounds(l.x(i), l.v[i])
			var got, want candRow
			wok := l.columnPass(&want, i, skip, &b)
			if began && c.stamp == l.epoch && !(wok && sameList(c, &want)) {
				t.Fatalf("op %d: node %d's list from BeginEpoch differs from the column-order pass:\nbuilt  %+v\ncolumn %+v", op, i, *c, want)
			}
			var st listStats
			m, ok := l.fullPass(&got, row, i, skip, &b, &st)
			if ok != wok || ok && !sameList(&got, &want) {
				t.Fatalf("op %d: node %d's full pass (ok %v, %d places) differs from the column-order pass (ok %v):\npass   %+v\ncolumn %+v",
					op, i, ok, m, wok, got, want)
			}
			if !ok || st.unordered > 0 {
				continue
			}
			reach.tied += stopTies(l, row, skip, m, &b)
			if m == k {
				continue
			}
			seen, prior := widened(l, &got, row, i, skip, m)
			if seen {
				reach.seenWidened++
			}
			if prior {
				reach.priorWidened++
			}
		}
	}

	var decA, decP []Decision
	armed.SetDecisionObserver(func(d Decision) { decA = append(decA, d) })
	plain.SetDecisionObserver(func(d Decision) { decP = append(decP, d) })

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
		began := false
		switch code := in.next() % 7; code {
		case 0:
			began = true
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
			from, to := node(), target()
			b := in.next()
			for _, l := range ls {
				l.Observe(from, to, b%3 != 0)
			}
			q, seen := ref[[2]int{from, to}]
			if !seen {
				q = p.InitialLinkP
			}
			x := 0.0
			if b%3 != 0 {
				x = 1
			}
			ref[[2]int{from, to}] = q + p.LinkAlpha*(x-q)
			if b >= 0x80 {
				checkLinks(op, from, from+1, (*Learner).LinkP)
			}
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
		}
		checkLinks(op, 0, n, (*Learner).peekLinkP)
		if len(decA) != len(decP) {
			t.Fatalf("op %d: %d decisions observed armed, %d unarmed", op, len(decA), len(decP))
		}
		for i := range decA {
			if !sameDecision(decA[i], decP[i]) {
				t.Fatalf("op %d: decision %d differs:\narmed   %+v\nunarmed %+v", op, i, decA[i], decP[i])
			}
		}
		decA, decP = decA[:0], decP[:0]
		checkPasses(op, began)
	}
	checkLinks(-1, 0, n, (*Learner).LinkP)
	reach.listStats = screened.stats
	return reach
}

// epochReach is what a FuzzDecideEpoch run reached: the first learner's
// counters, and paths of the full pass that checkPasses counts.
type epochReach struct {
	listStats
	tied         uint64 // places where a pass's stop bound equaled b: a stop on ≤ would have been taken
	seenWidened  uint64 // passes whose envelope an observed link to a head they did not visit widened
	priorWidened uint64 // passes whose envelope the prior widened, for a head they did not visit
}

// stopTies returns the number of places before m, the first place of ord
// a pass by l with bounds b did not visit, at which the stop bound
// equaled the envelope's b: the bound of the 17th highest head visited
// before it. row holds the pass's y and P; skip is the sender's column.
func stopTies(l *Learner, row []action, skip, m int, b *bounds) uint64 {
	var ties uint64
	var seen []float64 // the visited heads' bounds, highest first
	for _, o := range l.ord[:m] {
		if u := -b.g + max(0, b.d+o.k); len(seen) > candM && u == seen[candM] {
			ties++
		}
		if int(o.j) == skip {
			continue
		}
		s := b.of(row[o.j+1], l.cols[o.j].k)
		i, _ := slices.BinarySearchFunc(seen, s, func(a, s float64) int { return cmp.Compare(s, a) })
		seen = slices.Insert(seen, i, s)
	}
	return ties
}

// widened reports whether the P range of list c, from a pass of l that
// visited m places of ord and left row filled, is wider than the range
// of the heads it left out among those it visited: by the observed link
// to a head it did not visit (seen), or by the prior, for a head it did
// not visit with no observed link (prior).
func widened(l *Learner, c *candRow, row []action, from, skip, m int) (seen, prior bool) {
	none := math.Inf(-1)
	vis := envelope{b: none, pmin: math.Inf(1), pmax: none}
	rest, unseen := vis, false
	for place, o := range l.ord {
		j := int(o.j)
		if j == skip || slices.Contains(c.col[:c.n], o.j) {
			continue
		}
		if place < m {
			vis.leave(none, row[j+1].p)
		} else if _, ok := l.links.lookup(from, l.cols[j].id); ok {
			rest.leave(none, row[j+1].p)
		} else {
			unseen = true
		}
	}
	p0 := l.params.InitialLinkP
	seen = rest.pmin < vis.pmin || rest.pmax > vis.pmax
	prior = unseen && (p0 < min(vis.pmin, rest.pmin) || p0 > max(vis.pmax, rest.pmax))
	return seen, prior
}

// peekLinkP is LinkP without the write-back LinkP makes: the estimate
// from's candidate list holds for to when Observe left that entry
// dirty, else the link store's.
func (l *Learner) peekLinkP(from, to int) float64 {
	if from < len(l.cands) {
		c := &l.cands[from]
		for d := c.dirty; d != 0; d &= d - 1 {
			if e := bits.TrailingZeros32(d); l.target(c, e) == to {
				return c.row[e].p
			}
		}
	}
	return l.linkP(from, to)
}

// sameDecision reports whether two Decision records are bit-equal.
func sameDecision(a, b Decision) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.Node != b.Node || a.Chosen != b.Chosen ||
		!same(a.VBefore, b.VBefore) || !same(a.VAfter, b.VAfter) ||
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
	reach func(epochReach) bool
}{
	// A ring of 22: node 0 decides among heads 21..1, its
	// ACK for the pick is a failure, and its next decision finds the
	// envelope reaching the best Q and rebuilds; without that full pass
	// it would return the wrong head.
	{"envelope-fallback", []byte{0x14, 0xcc, 0x03, 0x00, 0x82, 0x01, 0x14, 0x01, 0x00, 0x03, 0x00,
		0x83, 0x2d, 0x01},
		func(s epochReach) bool { return s.fallback > 0 }},
	// A list built, then D falls below d0 before later decisions: the
	// envelope takes the p_min slope (the p_max slope would miss the
	// winner).
	{"falling-d", []byte{0x16, 0x32, 0x01, 0x00, 0x82, 0x00, 0x12, 0x01, 0x17, 0x03, 0x17, 0x83,
		0xd8, 0x64, 0x47, 0xc9, 0x17, 0x04, 0x01, 0x17, 0x01, 0x17, 0x01, 0x17},
		func(s epochReach) bool { return s.falling > 0 }},
	// 20 nodes, heads 0..17; member 19 builds its list, head 7 decides
	// (its V drops to its best Q), then UpdateHeadValue(7) raises head
	// 7's V mid-epoch, which expires member 19's list: its next
	// decision is a full pass.
	{"head-value-raise", []byte{0x12, 0x00, 0, 0, 0x81, 0x00, 0x11, 0x01, 0x13, 0x01, 0x07,
		0x04, 0x01, 0x07, 0x01, 0x13},
		func(s epochReach) bool { return s.raised > 0 && s.full >= 3 }},
	// A ring of 18, all heads: head 1's V falls (UpdateHeadValue), so
	// node 0's list leaves it out; head 1 then decides, which raises
	// its V back above the others' (each decides and drains its
	// battery after), so head 1 wins node 0's last decision only if
	// the raise expired the list.
	{"head-decide-raise", append(append([]byte{0x10, 0x00, 0x02, 0x00, 0x81, 0x00, 0x11,
		0x04, 0x01, 0x01, 0x01, 0x00, 0x01, 0x01}, decideAndDrain(2, 17)...), 0x01, 0x00),
		func(s epochReach) bool { return s.raised > 0 }},
	// 20 nodes: member 19 first decides with no heads, which sinks
	// its V toward −l; BeginEpoch over heads 0..17 then builds its
	// list at that V. Before its first armed decision its battery is
	// drawn and UpdateHeadValue(19) raises its V, so D falls below
	// the list's d0 and the envelope takes the p_min slope: a list
	// built at epoch start meets a moved D.
	{"prebuilt-moved-d", []byte{0x12, 0x00, 0x00, 0x01, 0x13, 0x00, 0x81, 0x00, 0x11,
		0x06, 0x13, 0xff, 0x04, 0x03, 0x13, 0x01, 0x13},
		func(s epochReach) bool { return s.full == 2 && s.falling > 0 }},
	// A ring of 35: an ACK from node 0 for a head its list
	// left out must expire the list, or node 0's next decision misses
	// that head.
	{"observe-left-out", []byte{0x21, 0xb3, 0x03, 0x00, 0x81, 0x01, 0x21, 0x03, 0x00, 0x01, 0xe7,
		0x01, 0x01, 0x00, 0x03, 0x00, 0x01, 0x16, 0x07, 0x01},
		func(s epochReach) bool { return s.observed > 0 }},
	// The rest start alike: 20 nodes, heads 0..17, so BeginEpoch builds
	// member 19's list (which leaves heads 9 and 11 out), and 19
	// decides. Then ACKs for listed targets leave the list dirty before
	// each of the ways the store catches up.
	//
	// ACKs for the BS and head 7, then BeginEpoch over heads 1..18:
	// BeginEpoch writes the list back through the old columns before
	// it re-arms them.
	{"dirty-begin", []byte{0x12, 0x00, 0x00, 0x00, 0x81, 0x00, 0x11, 0x01, 0x13,
		0x03, 0x13, 0x00, 0x01, 0x03, 0x13, 0x01, 0x07, 0x00, 0x00, 0x81, 0x01, 0x11, 0x01, 0x13},
		func(s epochReach) bool { return s.ended > 0 }},
	// ACKs for the BS and head 7, then a node move and
	// InvalidateGeometry expire the list; 19's next decision is a full
	// pass, which writes the list back before it reads the store.
	{"dirty-invalidate", []byte{0x12, 0x00, 0x00, 0x00, 0x81, 0x00, 0x11, 0x01, 0x13,
		0x03, 0x13, 0x00, 0x01, 0x03, 0x13, 0x01, 0x07, 0x00, 0x05, 0x03, 0x90, 0x01, 0x13},
		func(s epochReach) bool { return s.settled > 0 && s.ended == 0 }},
	// An ACK for head 7, then head 7 decides and UpdateHeadValue(7)
	// raises its k, expiring every list; the next ACK of 19, for head 7
	// again, finds its list expired and dirty, and must write it back
	// before it reads the store's estimate for head 7.
	{"dirty-raise", []byte{0x12, 0x00, 0x00, 0x00, 0x81, 0x00, 0x11, 0x01, 0x13,
		0x03, 0x13, 0x01, 0x07, 0x01, 0x01, 0x07, 0x04, 0x01, 0x07, 0x03, 0x13, 0x01, 0x07, 0x01, 0x01, 0x13},
		func(s epochReach) bool { return s.raised > 0 && s.settled > 0 }},
	// An ACK for head 7, then one for the BS read back with LinkP (the
	// outcome byte 0x82), which writes the list back; an ACK for head 6
	// dirties it again for the final check's LinkP reads.
	{"dirty-linkp", []byte{0x12, 0x00, 0x00, 0x00, 0x81, 0x00, 0x11, 0x01, 0x13,
		0x03, 0x13, 0x01, 0x07, 0x01, 0x03, 0x13, 0x00, 0x82, 0x03, 0x13, 0x01, 0x06, 0x01},
		func(s epochReach) bool { return s.settled > 1 }},
	// An ACK for head 7, then one for head 9, which the list left out:
	// the list expires, and is written back before the store takes the
	// estimate for head 9.
	{"dirty-left-out", []byte{0x12, 0x00, 0x00, 0x00, 0x81, 0x00, 0x11, 0x01, 0x13,
		0x03, 0x13, 0x01, 0x07, 0x01, 0x03, 0x13, 0x01, 0x09, 0x00, 0x01, 0x13},
		func(s epochReach) bool { return s.observed > 0 && s.settled > 0 }},
	// 10 nodes and heads 1, 2 and 3, so node 5's list is its whole row:
	// ACKs for the BS and head 2, then BeginEpoch over 5 heads
	// (head-set byte 0x44) writes the list back through the old
	// columns, whose order is the list's.
	{"dirty-small-begin", []byte{0x08, 0x00, 0x00, 0x00, 0x03, 0x01, 0x02, 0x03, 0x01, 0x05,
		0x03, 0x05, 0x00, 0x01, 0x03, 0x05, 0x01, 0x01, 0x02, 0x00, 0x44, 0x04, 0x05, 0x06, 0x07, 0x08, 0x01, 0x09},
		func(s epochReach) bool { return s.ended > 0 }},
	// The next four start alike (stopSetup): 26 nodes, of which 1..4 and
	// the members 21..25 decide with no heads, which sinks their V toward
	// −l, and then BeginEpoch over heads 0..20. A member's D is then
	// about 95 and heads 1..4 have k about −95, last in ord: each
	// member's pass lists 16 of the other heads, leaves one out, and
	// stops at the first of 1..4, whose stop bound is far below the
	// bound of the head left out.
	{"stop-before-last", slices.Concat(stopSetup, []byte{0x01, 0x15}),
		func(s epochReach) bool { return s.stopped > 0 }},
	// Then UpdateHeadValue(1), three times: head 1's k rises to about
	// −0.5, which voids the order, and member 21's next decision is a
	// pass without it. A pass that stopped at k* would miss head 1.
	{"raise-voids-order", slices.Concat(stopSetup, []byte{0x04, 0x01, 0x01, 0x04, 0x01, 0x01, 0x04, 0x01, 0x01, 0x01, 0x15}),
		func(s epochReach) bool { return s.raised > 0 && s.unordered > 0 }},
	// Before BeginEpoch, member 21 observes a failure toward head 3,
	// which its pass does not visit: that estimate sets the envelope's
	// p_min.
	{"unvisited-observed-widens", slices.Concat(stopSetup[:21], observe(0x15, 0x00, 0x03), stopSetup[21:], []byte{0x01, 0x15}),
		func(s epochReach) bool { return s.seenWidened > 0 }},
	// Before BeginEpoch, member 21 observes a success toward head 12,
	// the one head its pass visits and leaves out, so that head's P is
	// 0.9625: the prior of heads 1..4, which it does not visit, sets the
	// envelope's p_min. Its link block stays sparse.
	{"unvisited-prior-widens", slices.Concat(stopSetup[:21], observe(0x15, 0x01, 0x0c), stopSetup[21:], []byte{0x01, 0x15}),
		func(s epochReach) bool { return s.priorWidened > 0 }},
	// The same with a success toward head 0 and each of heads 5..20,
	// every head the pass visits: member 21's link block goes direct
	// (more than 4 targets at 26 nodes), so the pass folds the heads it
	// does not visit from its row, where the prior stands in for them.
	{"direct-prior-widens", slices.Concat(stopSetup[:21], observe(0x15, 0x01, 0x00, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a,
		0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0x10, 0x11, 0x12, 0x13, 0x14), stopSetup[21:], []byte{0x01, 0x15}),
		func(s epochReach) bool { return s.priorWidened > 0 }},
	// 20 nodes on one spot (layout byte 0x04: every y is 0), heads
	// 0..17, and members 18 and 19, whose V is 0, so D is 0. Head 0 is
	// drained before BeginEpoch, so its k* is 0 and it comes last in
	// ord; heads 1..17 are drained after it, and keep k* = 0.05 when
	// member 19's decision evaluates them and their k falls to 0. Every
	// head's bound for member 18 is then −G, and so is the stop bound at
	// head 0's place, where b is −G as well: a stop on ≤ would miss head
	// 0, which ties the 16th listed head and takes its place by its
	// lower column.
	{"stop-bound-equals-b", slices.Concat([]byte{0x12, 0x00, 0x04}, drain(0x00, 0x00), []byte{0x00, 0x81, 0x00, 0x11},
		drain(0x01, 0x11), []byte{0x01, 0x13}),
		func(s epochReach) bool { return s.tied > 0 }},
}

// stopSetup is the start of the listSeeds inputs whose passes stop
// early; byte 21 is the first after the decisions, the BeginEpoch.
var stopSetup = []byte{0x18, 0x00, 0x00, 0x01, 0x01, 0x01, 0x02, 0x01, 0x03, 0x01, 0x04,
	0x01, 0x15, 0x01, 0x16, 0x01, 0x17, 0x01, 0x18, 0x01, 0x19, 0x00, 0x81, 0x00, 0x14}

// observe encodes an ACK from node from toward each of targets, with
// outcome byte outcome.
func observe(from, outcome byte, targets ...byte) []byte {
	var d []byte
	for _, to := range targets {
		d = append(d, 0x03, from, 0x03, to, outcome)
	}
	return d
}

// drain encodes, for each node from first to last, two battery draws
// of 255/64 J, which empty a battery of 5 J.
func drain(first, last byte) []byte {
	var d []byte
	for j := first; j <= last; j++ {
		d = append(d, 0x06, j, 0xff, 0x06, j, 0xff)
	}
	return d
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
