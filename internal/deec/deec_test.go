package deec

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"qlec/internal/cluster"
	"qlec/internal/energy"
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

func TestConfigValidate(t *testing.T) {
	if err := ImprovedConfig(5, 20, 0).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []Config{
		{K: 0, TotalRounds: 20},
		{K: 5, TotalRounds: 0},
		{K: 5, TotalRounds: 20, DeathLine: -1},
	} {
		if err := c.Validate(); err == nil {
			t.Fatalf("invalid config %+v accepted", c)
		}
	}
}

func TestNewSelectorRejectsBadConfig(t *testing.T) {
	w := testNet(t, 20, 1)
	if _, err := NewSelector(w, Config{}, rng.New(1)); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestSelectImprovedKeepsCountAtK(t *testing.T) {
	w := testNet(t, 100, 2)
	s, err := NewSelector(w, ImprovedConfig(5, 20, 0), rng.NewNamed(2, "deec"))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 20; r++ {
		heads := s.Select(r)
		if len(heads) != 5 {
			t.Fatalf("round %d: %d heads, want exactly 5 (TopUp on)", r, len(heads))
		}
		if err := cluster.ValidateHeads(w, heads, 0); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		// Ascending order for determinism.
		for i := 1; i < len(heads); i++ {
			if heads[i] <= heads[i-1] {
				t.Fatalf("round %d: heads not sorted: %v", r, heads)
			}
		}
	}
}

func TestSelectDeterministic(t *testing.T) {
	w1 := testNet(t, 100, 3)
	w2 := testNet(t, 100, 3)
	s1, _ := NewSelector(w1, ImprovedConfig(5, 20, 0), rng.NewNamed(9, "deec"))
	s2, _ := NewSelector(w2, ImprovedConfig(5, 20, 0), rng.NewNamed(9, "deec"))
	for r := 0; r < 10; r++ {
		h1 := s1.Select(r)
		h2 := s2.Select(r)
		if len(h1) != len(h2) {
			t.Fatalf("round %d: counts differ", r)
		}
		for i := range h1 {
			if h1[i] != h2[i] {
				t.Fatalf("round %d: heads differ: %v vs %v", r, h1, h2)
			}
		}
	}
}

func TestRotatingEpochPreventsImmediateReselection(t *testing.T) {
	// With p_i ≈ k/N = 0.05, the rotating epoch is ~20 rounds: a node
	// serving as head at round r must not serve again at r+1.
	w := testNet(t, 100, 4)
	s, _ := NewSelector(w, ImprovedConfig(5, 40, 0), rng.NewNamed(4, "deec"))
	prev := map[int]bool{}
	for r := 0; r < 15; r++ {
		heads := s.Select(r)
		for _, h := range heads {
			if prev[h] {
				t.Fatalf("round %d: head %d served in the previous round", r, h)
			}
		}
		prev = map[int]bool{}
		for _, h := range heads {
			prev[h] = true
		}
	}
}

func TestHeadDutyRotatesAcrossNodes(t *testing.T) {
	// Head duty costs energy (as in a real run); the energy-weighted
	// lottery must then spread duty widely instead of hammering a few
	// nodes.
	w := testNet(t, 100, 5)
	s, _ := NewSelector(w, ImprovedConfig(5, 100, 0), rng.NewNamed(5, "deec"))
	served := map[int]int{}
	for r := 0; r < 100; r++ {
		for _, h := range s.Select(r) {
			served[h]++
			w.Nodes[h].Battery.Draw(0.04) // per-round head-duty cost
		}
	}
	// 500 head-slots over 100 nodes: rotation should reach most nodes.
	if len(served) < 60 {
		t.Fatalf("only %d distinct nodes ever served as head", len(served))
	}
	for id, c := range served {
		if c > 15 {
			t.Fatalf("node %d served %d times; rotation failing", id, c)
		}
	}
}

func TestEnergyWeightingFavorsRicherNodes(t *testing.T) {
	// Drain half the nodes heavily; the richer half should dominate head
	// duty (Eq. 1 and the Eq. 4 floor both push this way).
	w := testNet(t, 100, 6)
	for i := 0; i < 50; i++ {
		w.Nodes[i].Battery.Draw(4) // 1 J left vs 5 J
	}
	s, _ := NewSelector(w, ImprovedConfig(5, 50, 0), rng.NewNamed(6, "deec"))
	rich, poor := 0, 0
	for r := 0; r < 50; r++ {
		for _, h := range s.Select(r) {
			if h < 50 {
				poor++
			} else {
				rich++
			}
		}
	}
	if rich <= 2*poor {
		t.Fatalf("rich nodes served %d, poor %d; energy weighting too weak", rich, poor)
	}
}

func TestRedundancyReductionSpreadsHeads(t *testing.T) {
	// With redundancy reduction, no two heads should sit within d_c of
	// each other *when both were lottery winners*; after top-up the
	// spread preference still applies, so measure the improved selector
	// against plain DEEC.
	meanPairDist := func(seed uint64, cfg Config) float64 {
		w := testNet(t, 200, seed)
		s, _ := NewSelector(w, cfg, rng.NewNamed(seed, "deec"))
		total, pairs := 0.0, 0
		for r := 0; r < 30; r++ {
			heads := s.Select(r)
			for i := 0; i < len(heads); i++ {
				for j := i + 1; j < len(heads); j++ {
					total += w.Nodes[heads[i]].Pos.Dist(w.Nodes[heads[j]].Pos)
					pairs++
				}
			}
		}
		if pairs == 0 {
			return 0
		}
		return total / float64(pairs)
	}
	improved := meanPairDist(7, ImprovedConfig(5, 30, 0))
	plain := meanPairDist(7, PlainConfig(5, 30, 0))
	if improved <= plain {
		t.Fatalf("redundancy reduction did not spread heads: improved %v vs plain %v", improved, plain)
	}
}

func TestPlainDEECCountVaries(t *testing.T) {
	w := testNet(t, 100, 8)
	s, _ := NewSelector(w, PlainConfig(5, 20, 0), rng.NewNamed(8, "deec"))
	counts := map[int]bool{}
	for r := 0; r < 20; r++ {
		counts[len(s.Select(r))] = true
	}
	if len(counts) < 2 {
		t.Fatalf("plain DEEC produced a constant head count %v; lottery suspicious", counts)
	}
}

func TestDeadNodesNeverSelected(t *testing.T) {
	w := testNet(t, 50, 9)
	for i := 0; i < 25; i++ {
		w.Nodes[i].Battery.Draw(5)
	}
	s, _ := NewSelector(w, ImprovedConfig(5, 20, 0), rng.NewNamed(9, "deec"))
	for r := 0; r < 20; r++ {
		for _, h := range s.Select(r) {
			if h < 25 {
				t.Fatalf("round %d selected dead node %d", r, h)
			}
		}
	}
}

func TestSelectWithFewAliveNodes(t *testing.T) {
	// Fewer alive nodes than K: selector returns what it can, never
	// panics, never returns dead nodes.
	w := testNet(t, 10, 10)
	for i := 0; i < 8; i++ {
		w.Nodes[i].Battery.Draw(5)
	}
	s, _ := NewSelector(w, ImprovedConfig(5, 20, 0), rng.NewNamed(10, "deec"))
	heads := s.Select(0)
	if len(heads) > 2 {
		t.Fatalf("selected %d heads with 2 alive nodes", len(heads))
	}
	for _, h := range heads {
		if h < 8 {
			t.Fatalf("dead node %d selected", h)
		}
	}
}

func TestSelectPastPlannedLifespan(t *testing.T) {
	// Rounds beyond R: Eq. (2) estimates zero mean energy; selection
	// must keep functioning via the p_opt fallback.
	w := testNet(t, 100, 11)
	s, _ := NewSelector(w, ImprovedConfig(5, 10, 0), rng.NewNamed(11, "deec"))
	for r := 0; r < 30; r++ {
		heads := s.Select(r)
		if r >= 10 && len(heads) == 0 {
			t.Fatalf("round %d (past R=10): no heads selected", r)
		}
	}
}

func TestThresholdFormula(t *testing.T) {
	// Eq. (3) at r mod epoch == 0 reduces to p.
	if got := threshold(0.1, 0); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("T at epoch start = %v, want p", got)
	}
	// Later in the epoch the threshold grows.
	if threshold(0.1, 5) <= threshold(0.1, 1) {
		t.Fatal("threshold not increasing within epoch")
	}
	// Last epoch slot: T = p/(1-p·(epoch-1)); for p=0.1, epoch=10,
	// T = 0.1/0.1 = 1.
	if got := threshold(0.1, 9); math.Abs(got-1) > 1e-9 {
		t.Fatalf("T at epoch end = %v, want 1", got)
	}
}

// Eq. (1) pinned directly: p_i = p_opt · E_i(r) / Ē(r) with Ē(r) from
// Eq. (2), clamped into [pMin, 0.999].
func TestProbabilityEq1(t *testing.T) {
	w := testNet(t, 100, 20)
	s, _ := NewSelector(w, ImprovedConfig(5, 20, 0), rng.New(20))
	// Round 4 of 20: Ē = 5 · (1 − 4/20) = 4 J. Drain node 0 to 2 J:
	// p_0 = 0.05 · 2/4 = 0.025.
	w.Nodes[0].Battery.Draw(3)
	if got := s.probability(w.Nodes[0], 4); math.Abs(got-0.025) > 1e-12 {
		t.Fatalf("p_i = %v, want 0.025", got)
	}
	// An untouched node at round 4: p = 0.05 · 5/4 = 0.0625.
	if got := s.probability(w.Nodes[1], 4); math.Abs(got-0.0625) > 1e-12 {
		t.Fatalf("p_i = %v, want 0.0625", got)
	}
	// Clamping: a node with huge relative energy near round R.
	if got := s.probability(w.Nodes[1], 19); got > 0.999 {
		t.Fatalf("p_i = %v exceeds clamp", got)
	}
	// Past R, Ē estimates 0 → fallback to p_opt.
	if got := s.probability(w.Nodes[1], 25); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("p_i past R = %v, want p_opt", got)
	}
}

// Eq. (4) pinned directly: E_th(r) = (1 − (r/R)²) · E_initial.
func TestEnergyFloorEq4(t *testing.T) {
	w := testNet(t, 10, 21)
	s, _ := NewSelector(w, ImprovedConfig(2, 20, 0), rng.New(21))
	n := w.Nodes[0]
	if got := s.energyFloor(n, 0); math.Abs(float64(got)-5) > 1e-12 {
		t.Fatalf("E_th(0) = %v, want E_initial", got)
	}
	if got := s.energyFloor(n, 10); math.Abs(float64(got)-5*0.75) > 1e-12 {
		t.Fatalf("E_th(R/2) = %v, want 3.75", got)
	}
	if got := s.energyFloor(n, 20); math.Abs(float64(got)) > 1e-12 {
		t.Fatalf("E_th(R) = %v, want 0", got)
	}
	// Past R the floor clamps at zero rather than going negative.
	if got := s.energyFloor(n, 30); got != 0 {
		t.Fatalf("E_th(1.5R) = %v, want 0", got)
	}
}

// Property: Eq. (3)'s threshold stays a probability — T ∈ (0, 1] — and
// is non-decreasing within an epoch, for any valid p.
func TestThresholdPropertiesQuick(t *testing.T) {
	f := func(pRaw uint16, round uint8) bool {
		p := 0.001 + 0.997*float64(pRaw)/65535
		t1 := threshold(p, int(round))
		if !(t1 > 0 && t1 <= 1+1e-9) {
			return false
		}
		epoch := int(1 / p)
		if epoch < 1 {
			epoch = 1
		}
		slot := int(round) % epoch
		if slot+1 < epoch {
			// Next slot in the same epoch must not lower the threshold.
			base := int(round) - slot
			if threshold(p, base+slot+1)+1e-12 < threshold(p, base+slot) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestByResidualMatchesStableSort pins byResidual to the stable sort by
// residual it replaced in Select and topUp, on shuffled candidates
// whose residuals take one to eight values, so that most of them tie.
func TestByResidualMatchesStableSort(t *testing.T) {
	r := rng.New(7)
	for trial := range 200 {
		c := make([]candidate, r.Intn(300))
		for i := range c {
			c[i] = candidate{id: i, residual: energy.Joules(r.Intn(1 + trial%8))}
		}
		r.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
		want := slices.Clone(c)
		slices.SortStableFunc(want, func(a, b candidate) int { return cmp.Compare(b.residual, a.residual) })
		byResidual(c)
		for i := range c {
			if c[i].id != want[i].id {
				t.Fatalf("trial %d: place %d holds candidate %d, the stable sort %d", trial, i, c[i].id, want[i].id)
			}
		}
	}
}

// selectRounds is the round block one BenchmarkSelectImproved op
// times: the length of the §5.3 Fig. 4 run.
const selectRounds = 20

// BenchmarkSelectImproved times improved-DEEC head selection at the §5.3
// scale (2896 nodes, k=272). Every battery is first drained by its own
// amount, up to 2% of its charge, as the rounds before a selection
// drain them: with fresh batteries every residual ties, and the sorts
// by residual have next to nothing to do. Every op is the same block:
// rounds 0..selectRounds−1 from a fresh lottery stream and no head
// history, reset outside the timer. ns/round is the per-round cost.
func BenchmarkSelectImproved(b *testing.B) {
	w, err := network.Deploy(network.Deployment{N: 2896, Side: 1000, InitialEnergy: 5}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(3)
	for _, n := range w.Nodes {
		n.Battery.Draw(energy.Joules(0.1 * r.Float64()))
	}
	s, err := NewSelector(w, ImprovedConfig(272, 1000, 0), rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.rnd = rng.New(2)
		for _, n := range w.Nodes {
			n.LastCHRound = -1
		}
		b.StartTimer()
		for r := 0; r < selectRounds; r++ {
			s.Select(r)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*selectRounds), "ns/round")
}
