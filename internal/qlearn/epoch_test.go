package qlearn

import (
	"math"
	"runtime"
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
// the Fig. 4 shape (2896 nodes, 272 heads) through the armed action
// rows. Every op is the same block: arm the epoch, decide once for
// every member (each call fills that member's row) and then make
// fig4Repeats more decisions over the members (each reads a live row).
func BenchmarkDecideFig4(b *testing.B) {
	l, heads, members := fig4Learner(b)
	l.BeginEpoch(heads) // sizes the rows outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.BeginEpoch(heads)
		for _, m := range members {
			l.Decide(m, heads)
		}
		for r := 0; r < fig4Repeats; r++ {
			l.Decide(members[r*7%len(members)], heads)
		}
	}
	decisions := float64(b.N) * float64(len(members)+fig4Repeats)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/decisions, "ns/decide")
}

// TestDecideAllocs pins Decide at zero allocations: through armed rows
// at the Fig. 4 shape, through the scratch row once the first call has
// sized it, and with a decision observer installed and then removed.
func TestDecideAllocs(t *testing.T) {
	l, heads, members := fig4Learner(t)
	l.BeginEpoch(heads)
	i := 0
	if a := testing.AllocsPerRun(200, func() {
		l.Decide(members[i%len(members)], heads)
		i++
	}); a != 0 {
		t.Errorf("armed Decide at the Fig. 4 shape: %v allocs/op, want 0", a)
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
	l.BeginEpoch(heads)
	l.Decide(m, heads) // makes m's row live, so Observe updates it too
	if a := testing.AllocsPerRun(200, observe); a != 0 {
		t.Errorf("Observe on seen links with a live row: %v allocs/op, want 0", a)
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

// FuzzDecideEpoch is the oracle for the action rows and the link
// store: it decodes the input into a sequence of BeginEpoch, Decide,
// Observe, UpdateHeadValue, node moves with InvalidateGeometry, and
// battery draws over a small network, and runs it on a learner that is
// armed by every BeginEpoch and on one that is never armed (every
// Decide fills a scratch row by looking up each link). Both share the
// network, the parameters, twin exploration streams and a decision
// observer. After every operation the chosen targets, every V and the
// observed Decision records must be bit-equal, and both learners'
// estimate for every directed link must equal a reference map that
// applies the same prior-then-EWMA update.
func FuzzDecideEpoch(f *testing.F) {
	f.Add([]byte{30, 7, 1, 0, 3, 2, 2, 9, 1, 2, 1, 9, 3, 0, 2, 1, 3, 1, 0, 2, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		n := 2 + in.next()%39
		seed := uint64(in.next())
		w, err := network.Deploy(network.Deployment{N: n, Side: 200, InitialEnergy: 5}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		p := DefaultParams()
		if in.next()%2 == 1 {
			p.Epsilon = 0.3
		}
		armed, err := NewLearner(w, energy.DefaultModel(), 4000, p)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewLearner(w, energy.DefaultModel(), 4000, p)
		if err != nil {
			t.Fatal(err)
		}
		ref := map[[2]int]float64{} // the reference link estimates
		var decA, decP []Decision
		armed.SetDecisionObserver(func(d Decision) { decA = append(decA, d) })
		plain.SetDecisionObserver(func(d Decision) { decP = append(decP, d) })
		if p.Epsilon > 0 {
			armed.SetExploration(rng.NewNamed(seed, "explore"))
			plain.SetExploration(rng.NewNamed(seed, "explore"))
		}

		// node draws an id; target draws the BS, a current or previous
		// head, or any node.
		var cur, prev []int
		node := func() int { return in.next() % n }
		target := func() int {
			switch in.next() % 4 {
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
			}
			return node()
		}
		for op := 0; len(in) > 0; op++ {
			switch code := in.next() % 7; code {
			case 0:
				prev = cur
				cur = nil
				if k := in.next() % 7; k > 0 {
					cur = make([]int, k)
					for j := range cur {
						cur[j] = node()
					}
				}
				armed.BeginEpoch(cur)
			case 1, 2:
				heads := cur
				if code == 2 {
					heads = prev
				}
				from := node()
				if a, b := armed.Decide(from, heads), plain.Decide(from, heads); a != b {
					t.Fatalf("op %d: Decide(%d, %v) = %d armed, %d unarmed", op, from, heads, a, b)
				}
			case 3:
				from, to, ok := node(), target(), in.next()%3 != 0
				armed.Observe(from, to, ok)
				plain.Observe(from, to, ok)
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
				armed.UpdateHeadValue(h)
				plain.UpdateHeadValue(h)
			case 5:
				id := node()
				d := float64(in.next()) - 128
				w.Nodes[id].Pos = w.Nodes[id].Pos.Add(geom.Vec3{X: d / 4, Y: -d / 8, Z: d / 16})
				armed.InvalidateGeometry()
				plain.InvalidateGeometry()
			case 6:
				w.Nodes[node()].Battery.Draw(energy.Joules(in.next()) / 64)
			}
			for i := 0; i < n; i++ {
				if a, b := armed.V(i), plain.V(i); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("op %d: V(%d) = %v armed, %v unarmed", op, i, a, b)
				}
				for to := network.BSID; to < n; to++ {
					want, seen := ref[[2]int{i, to}]
					if !seen {
						want = p.InitialLinkP
					}
					a, b := armed.LinkP(i, to), plain.LinkP(i, to)
					if math.Float64bits(a) != math.Float64bits(want) || math.Float64bits(b) != math.Float64bits(want) {
						t.Fatalf("op %d: LinkP(%d, %d) = %v armed, %v unarmed, want %v", op, i, to, a, b, want)
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
	})
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
