package qlearn

import (
	"math"
	"testing"

	"qlec/internal/energy"
	"qlec/internal/geom"
	"qlec/internal/network"
	"qlec/internal/rng"
)

func testNet(t *testing.T, n int, seed uint64) *network.Network {
	t.Helper()
	w, err := network.Deploy(network.Deployment{N: n, Side: 200, InitialEnergy: 5}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func newTestLearner(t *testing.T, w *network.Network) *Learner {
	t.Helper()
	l, err := NewLearner(w, energy.DefaultModel(), 4000, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mut := range []func(*Params){
		func(p *Params) { p.Gamma = -0.1 },
		func(p *Params) { p.Gamma = 1.5 },
		func(p *Params) { p.LinkAlpha = 0 },
		func(p *Params) { p.InitialLinkP = 1.2 },
		func(p *Params) { p.L = -1 },
		func(p *Params) { p.G = -1 },
		func(p *Params) { p.Alpha2 = -1 },
		func(p *Params) { p.Beta1 = math.NaN() },
	} {
		p := DefaultParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("invalid params %+v accepted", p)
		}
	}
}

func TestNewLearnerValidation(t *testing.T) {
	w := testNet(t, 10, 1)
	if _, err := NewLearner(w, energy.DefaultModel(), 0, DefaultParams()); err == nil {
		t.Fatal("zero bits accepted")
	}
	bad := DefaultParams()
	bad.Gamma = 2
	if _, err := NewLearner(w, energy.DefaultModel(), 4000, bad); err == nil {
		t.Fatal("bad params accepted")
	}
	if _, err := NewLearner(w, energy.Model{}, 4000, DefaultParams()); err == nil {
		t.Fatal("zero model accepted")
	}
}

func TestDecideAvoidsDirectBS(t *testing.T) {
	// With any head available, the −l penalty must keep members off the
	// direct-to-BS action.
	w := testNet(t, 50, 2)
	l := newTestLearner(t, w)
	heads := []int{4, 17, 33}
	for id := 0; id < 50; id++ {
		isHead := false
		for _, h := range heads {
			if h == id {
				isHead = true
			}
		}
		if isHead {
			continue
		}
		if got := l.Decide(id, heads); got == network.BSID {
			t.Fatalf("node %d chose direct BS despite available heads", id)
		}
	}
}

func TestDecideFallsBackToBSWithoutHeads(t *testing.T) {
	w := testNet(t, 10, 3)
	l := newTestLearner(t, w)
	if got := l.Decide(0, nil); got != network.BSID {
		t.Fatalf("Decide with no heads = %d, want BSID", got)
	}
	// A head list containing only the node itself is also empty in effect.
	if got := l.Decide(0, []int{0}); got != network.BSID {
		t.Fatalf("Decide with self-only head list = %d, want BSID", got)
	}
}

func TestDecidePrefersCloserHeadInitially(t *testing.T) {
	// Fresh learner, equal energies, equal link priors: the only
	// differentiator in Eq. (17) is y(b_i,h_j), so the nearer head wins.
	pos := []geom.Vec3{
		{X: 0, Y: 0, Z: 0},    // member
		{X: 10, Y: 0, Z: 0},   // near head
		{X: 150, Y: 0, Z: 0},  // far head
		{X: 80, Y: 80, Z: 80}, // filler
	}
	en := []energy.Joules{5, 5, 5, 5}
	w, err := network.FromPositions(pos, en, geom.Cube(200), geom.Vec3{X: 100, Y: 100, Z: 100})
	if err != nil {
		t.Fatal(err)
	}
	l := newTestLearner(t, w)
	if got := l.Decide(0, []int{1, 2}); got != 1 {
		t.Fatalf("Decide = %d, want nearer head 1", got)
	}
}

func TestDecidePrefersHigherEnergyHead(t *testing.T) {
	// Two heads equidistant from the member; one has drained most of its
	// battery. Eq. (17)'s α₁·x(h_j) term must steer toward the fresher
	// head.
	pos := []geom.Vec3{
		{X: 100, Y: 100, Z: 0}, // member
		{X: 60, Y: 100, Z: 0},  // head A
		{X: 140, Y: 100, Z: 0}, // head B (drained)
	}
	en := []energy.Joules{5, 5, 5}
	w, err := network.FromPositions(pos, en, geom.Cube(200), geom.Vec3{X: 100, Y: 100, Z: 100})
	if err != nil {
		t.Fatal(err)
	}
	w.Nodes[2].Battery.Draw(4.9)
	l := newTestLearner(t, w)
	if got := l.Decide(0, []int{1, 2}); got != 1 {
		t.Fatalf("Decide = %d, want high-energy head 1", got)
	}
}

func TestObserveLearnsLinkQuality(t *testing.T) {
	w := testNet(t, 10, 4)
	l := newTestLearner(t, w)
	p0 := l.LinkP(0, 1)
	for i := 0; i < 20; i++ {
		l.Observe(0, 1, false)
	}
	pBad := l.LinkP(0, 1)
	if pBad >= p0 {
		t.Fatalf("link estimate did not drop after failures: %v -> %v", p0, pBad)
	}
	if pBad > 0.05 {
		t.Fatalf("link estimate after 20 failures = %v, want near 0", pBad)
	}
	for i := 0; i < 40; i++ {
		l.Observe(0, 1, true)
	}
	if p := l.LinkP(0, 1); p < 0.9 {
		t.Fatalf("link estimate after recovery = %v, want near 1", p)
	}
}

func TestFailuresRerouteTraffic(t *testing.T) {
	// The core QLEC behaviour: a member whose chosen head stops ACKing
	// must switch heads. This is the mechanism behind Figure 3(a)'s
	// PDR gap.
	pos := []geom.Vec3{
		{X: 100, Y: 100, Z: 0}, // member
		{X: 90, Y: 100, Z: 0},  // head A, closest
		{X: 120, Y: 100, Z: 0}, // head B
	}
	en := []energy.Joules{5, 5, 5}
	w, err := network.FromPositions(pos, en, geom.Cube(200), geom.Vec3{X: 100, Y: 100, Z: 100})
	if err != nil {
		t.Fatal(err)
	}
	l := newTestLearner(t, w)
	heads := []int{1, 2}
	if first := l.Decide(0, heads); first != 1 {
		t.Fatalf("initial choice = %d, want nearest head 1", first)
	}
	// Head 1 stops accepting (congested queue → no ACKs).
	for i := 0; i < 12; i++ {
		choice := l.Decide(0, heads)
		if choice != 1 {
			break
		}
		l.Observe(0, 1, false)
	}
	if final := l.Decide(0, heads); final != 2 {
		t.Fatalf("after persistent failures choice = %d, want reroute to head 2", final)
	}
}

func TestUpdateHeadValuePropagatesToMembers(t *testing.T) {
	// A head whose V collapses (e.g. it keeps failing toward the BS)
	// becomes less attractive to members through the γ·P·V(h_j) term.
	pos := []geom.Vec3{
		{X: 100, Y: 100, Z: 0}, // member
		{X: 90, Y: 100, Z: 0},  // head A nearer
		{X: 112, Y: 100, Z: 0}, // head B slightly farther
	}
	en := []energy.Joules{5, 5, 5}
	w, err := network.FromPositions(pos, en, geom.Cube(200), geom.Vec3{X: 100, Y: 100, Z: 100})
	if err != nil {
		t.Fatal(err)
	}
	l := newTestLearner(t, w)
	heads := []int{1, 2}
	if first := l.Decide(0, heads); first != 1 {
		t.Fatalf("initial choice = %d", first)
	}
	// Head 1's link to the BS keeps failing; its V value sinks across
	// many round-end updates.
	for i := 0; i < 300; i++ {
		l.Observe(1, network.BSID, false)
		l.UpdateHeadValue(1)
	}
	if l.V(1) >= l.V(2) {
		t.Fatalf("failing head V=%v not below healthy head V=%v", l.V(1), l.V(2))
	}
	if got := l.Decide(0, heads); got != 2 {
		t.Fatalf("member still picks collapsed head: %d", got)
	}
}

func TestVConvergesUnderStationaryConditions(t *testing.T) {
	w := testNet(t, 30, 5)
	l := newTestLearner(t, w)
	heads := []int{1, 2, 3, 4, 5}
	if l.Converged(1e-6) {
		t.Fatal("fresh learner reports convergence")
	}
	for iter := 0; iter < 3000; iter++ {
		for id := 6; id < 30; id++ {
			to := l.Decide(id, heads)
			l.Observe(id, to, true)
		}
		for _, h := range heads {
			l.Observe(h, network.BSID, true)
			l.UpdateHeadValue(h)
		}
		if l.Converged(1e-9) {
			break
		}
	}
	if !l.Converged(1e-9) {
		t.Fatal("V values failed to converge under stationary conditions")
	}
	if l.Updates() == 0 {
		t.Fatal("update counter not advancing")
	}
}

func TestVValuesStayFinite(t *testing.T) {
	// With γ<1 and bounded rewards, V must stay bounded no matter the
	// outcome sequence.
	w := testNet(t, 20, 6)
	l := newTestLearner(t, w)
	heads := []int{0, 1, 2}
	r := rng.New(99)
	for iter := 0; iter < 5000; iter++ {
		id := 3 + r.Intn(17)
		to := l.Decide(id, heads)
		l.Observe(id, to, r.Float64() < 0.5)
		if iter%7 == 0 {
			l.UpdateHeadValue(heads[r.Intn(3)])
		}
	}
	for id := 0; id < 20; id++ {
		v := l.V(id)
		if math.IsNaN(v) || math.Abs(v) > 1e6 {
			t.Fatalf("V(%d) = %v diverged", id, v)
		}
	}
	if l.V(network.BSID) != 0 {
		t.Fatalf("BS terminal value = %v, want 0", l.V(network.BSID))
	}
}

func TestDecideDeterministicTieBreak(t *testing.T) {
	// Symmetric heads: the lower id must win deterministically.
	pos := []geom.Vec3{
		{X: 100, Y: 100, Z: 100}, // member at center
		{X: 50, Y: 100, Z: 100},  // head A
		{X: 150, Y: 100, Z: 100}, // head B, mirror image
	}
	en := []energy.Joules{5, 5, 5}
	w, err := network.FromPositions(pos, en, geom.Cube(200), geom.Vec3{X: 100, Y: 100, Z: 0})
	if err != nil {
		t.Fatal(err)
	}
	l := newTestLearner(t, w)
	for i := 0; i < 5; i++ {
		if got := l.Decide(0, []int{2, 1}); got != 1 {
			t.Fatalf("tie-break chose %d, want 1", got)
		}
	}
}

// Default rewards must be strictly negative per step so V values stay
// non-positive; otherwise the (1−p)·V(self) loop of Eq. (15) makes a
// failing action self-reinforcing (see DefaultParams doc and DESIGN.md
// §6.6).
func TestDefaultRewardsKeepVNonPositive(t *testing.T) {
	w := testNet(t, 30, 8)
	l := newTestLearner(t, w)
	heads := []int{0, 1, 2, 3}
	for iter := 0; iter < 2000; iter++ {
		for id := 4; id < 30; id++ {
			to := l.Decide(id, heads)
			l.Observe(id, to, true) // all-success is the most optimistic case
		}
		for _, h := range heads {
			l.Observe(h, network.BSID, true)
			l.UpdateHeadValue(h)
		}
	}
	for id := 0; id < 30; id++ {
		if l.V(id) > 1e-9 {
			t.Fatalf("V(%d) = %v went positive under all-success traffic", id, l.V(id))
		}
	}
}

// The strongest fidelity check in the package: hand-evaluate
// Eq. (15)–(20) for a fully pinned two-node configuration and require
// QValue to match to machine precision.
func TestQValueMatchesHandComputedEquations(t *testing.T) {
	// Geometry: member at origin, head at (60,0,0), box 200³ with BS at
	// center. yNorm reference distance = 100 m (half max extent).
	pos := []geom.Vec3{
		{X: 0, Y: 0, Z: 0},  // member, id 0
		{X: 60, Y: 0, Z: 0}, // head, id 1
	}
	en := []energy.Joules{5, 5}
	w, err := network.FromPositions(pos, en, geom.Cube(200), geom.Vec3{X: 100, Y: 100, Z: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Drain the member to 40 % so x-values differ.
	w.Nodes[0].Battery.Draw(3)

	p := DefaultParams()
	model := energy.DefaultModel()
	const bits = 4000
	l, err := NewLearner(w, model, bits, p)
	if err != nil {
		t.Fatal(err)
	}
	// Give the head a known V value by seeding its link history and
	// updating once; then freeze and hand-compute the member's Q.
	l.Observe(1, network.BSID, true)
	l.UpdateHeadValue(1)
	vHead := l.V(1)
	vMember := l.V(0) // still 0: member never decided yet

	// Hand evaluation.
	x0 := 2.0 / 5.0 // residual/initial of member
	x1 := 1.0       // head untouched
	d := 60.0
	yNorm := float64(model.TxAmplifier(bits, 100))
	y := float64(model.TxAmplifier(bits, d)) / yNorm
	pLink := p.InitialLinkP                    // no member→head history yet
	rs := -p.G + p.Alpha1*(x0+x1) - p.Alpha2*y // Eq. (17)
	rf := -p.G + p.Beta1*x0 - p.Beta2*y        // Eq. (20)
	rt := pLink*rs + (1-pLink)*rf              // Eq. (16)
	want := rt + p.Gamma*(pLink*vHead+(1-pLink)*vMember)

	if got := l.QValue(0, 1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("QValue(0,1) = %.15f, hand-computed Eq.(15) = %.15f", got, want)
	}

	// The BS action carries Eq. (19)'s −l penalty: recompute with
	// x(BS)=1, the member→BS distance, and V(BS)=0.
	dBS := pos[0].Dist(geom.Vec3{X: 100, Y: 100, Z: 100})
	yBS := float64(model.TxAmplifier(bits, dBS)) / yNorm
	rsBS := -p.G + p.Alpha1*(x0+1) - p.Alpha2*yBS - p.L
	rfBS := -p.G + p.Beta1*x0 - p.Beta2*yBS
	rtBS := pLink*rsBS + (1-pLink)*rfBS
	wantBS := rtBS + p.Gamma*(pLink*0+(1-pLink)*vMember)
	if got := l.QValue(0, network.BSID); math.Abs(got-wantBS) > 1e-12 {
		t.Fatalf("QValue(0,BS) = %.15f, hand-computed Eq.(19) = %.15f", got, wantBS)
	}
}

func TestEpsilonGreedyExploration(t *testing.T) {
	w := testNet(t, 20, 20)
	p := DefaultParams()
	p.Epsilon = 0.5
	l, err := NewLearner(w, energy.DefaultModel(), 4000, p)
	if err != nil {
		t.Fatal(err)
	}
	heads := []int{1, 2, 3, 4}
	// Without an exploration stream, ε is inert (pure greedy).
	first := l.Decide(10, heads)
	for i := 0; i < 20; i++ {
		if l.Decide(10, heads) != first {
			t.Fatal("epsilon without stream changed decisions")
		}
	}
	// With a stream, ~ε of decisions deviate from the greedy pick.
	l.SetExploration(rng.NewNamed(20, "explore"))
	deviations := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		if l.Decide(10, heads) != first {
			deviations++
		}
	}
	// ε=0.5 picks uniformly among 4 heads, so ~0.5·(3/4) = 37.5 % differ.
	frac := float64(deviations) / trials
	if frac < 0.2 || frac > 0.55 {
		t.Fatalf("exploration fraction %v, want ~0.375", frac)
	}
}

func TestEpsilonValidation(t *testing.T) {
	p := DefaultParams()
	p.Epsilon = 1
	if err := p.Validate(); err == nil {
		t.Fatal("epsilon=1 accepted")
	}
	p.Epsilon = -0.1
	if err := p.Validate(); err == nil {
		t.Fatal("negative epsilon accepted")
	}
	p.Epsilon = math.NaN()
	if err := p.Validate(); err == nil {
		t.Fatal("NaN epsilon accepted")
	}
}

func TestUpdatesCountsX(t *testing.T) {
	w := testNet(t, 10, 7)
	l := newTestLearner(t, w)
	before := l.Updates()
	l.Decide(0, []int{1})
	l.UpdateHeadValue(1)
	if l.Updates() != before+2 {
		t.Fatalf("Updates = %d, want %d", l.Updates(), before+2)
	}
}

// BenchmarkDecide measures the unarmed path: no BeginEpoch, so every
// call fills the scratch row for its five heads from the geometry and
// the dense link table. BenchmarkDecideFig4 measures the armed rows.
func BenchmarkDecide(b *testing.B) {
	w, _ := network.Deploy(network.Deployment{N: 100, Side: 200, InitialEnergy: 5}, rng.New(1))
	l, _ := NewLearner(w, energy.DefaultModel(), 4000, DefaultParams())
	heads := []int{1, 2, 3, 4, 5}
	// Seed some link history so the estimator path (not just the
	// optimistic prior) is exercised.
	for from := 10; from < 90; from++ {
		for _, h := range heads {
			l.Observe(from, h, true)
			l.Observe(from, h, (from+h)%3 != 0)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Decide(10+(i%80), heads)
	}
}

func TestEpsilonGreedyExcludesSelf(t *testing.T) {
	// A head forwarding its own sensing data calls Decide with itself in
	// the head list. Exploration must sample from the OTHER heads only:
	// drawing over the full list and falling back to greedy when the draw
	// landed on the caller silently depressed the realized exploration
	// rate from ε to ε·(k−1)/k.
	w := testNet(t, 20, 21)
	p := DefaultParams()
	p.Epsilon = 0.6
	l, err := NewLearner(w, energy.DefaultModel(), 4000, p)
	if err != nil {
		t.Fatal(err)
	}
	l.SetExploration(rng.NewNamed(21, "explore-self"))
	const from = 2
	heads := []int{1, 2, 3, 4} // from is a head itself
	greedy := func() int {
		q := DefaultParams()
		g, err := NewLearner(w, energy.DefaultModel(), 4000, q)
		if err != nil {
			t.Fatal(err)
		}
		return g.Decide(from, heads)
	}()

	const trials = 2000
	picked := map[int]int{}
	for i := 0; i < trials; i++ {
		got := l.Decide(from, heads)
		if got == from {
			t.Fatal("exploration returned the deciding node itself")
		}
		picked[got]++
	}
	for _, h := range []int{1, 3, 4} {
		if picked[h] == 0 {
			t.Fatalf("head %d never picked across %d trials; exploration not uniform over others", h, trials)
		}
	}
	// Exploration picks uniformly among the 3 other heads; with the
	// greedy choice being one of them, deviations from greedy occur at
	// ε·(2/3) = 0.4. The pre-fix fallback behaviour gave ε·(2/4) = 0.3 —
	// far outside the tolerance below at this sample size.
	deviations := trials - picked[greedy]
	frac := float64(deviations) / trials
	if frac < 0.36 || frac > 0.44 {
		t.Fatalf("deviation fraction %v, want ~0.40 (pre-fix bug gives ~0.30)", frac)
	}
}
