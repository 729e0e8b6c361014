package network

import (
	"math"
	"testing"
	"testing/quick"

	"qlec/internal/energy"
	"qlec/internal/geom"
	"qlec/internal/rng"
)

func paperDeployment() Deployment {
	return Deployment{N: 100, Side: 200, InitialEnergy: 5}
}

func TestDeployPaperSettings(t *testing.T) {
	w, err := Deploy(paperDeployment(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if w.N() != 100 {
		t.Fatalf("N = %d", w.N())
	}
	if w.BS != (geom.Vec3{X: 100, Y: 100, Z: 100}) {
		t.Fatalf("BS = %v, want cube center", w.BS)
	}
	if w.InitialTotalEnergy() != 500 {
		t.Fatalf("initial total = %v, want 500 J", w.InitialTotalEnergy())
	}
	for _, n := range w.Nodes {
		if !inBox(w.Box, n.Pos) {
			t.Fatalf("node %d outside cube: %v", n.ID, n.Pos)
		}
		if n.LastCHRound != -1 {
			t.Fatalf("node %d LastCHRound = %d, want -1", n.ID, n.LastCHRound)
		}
	}
}

func TestDeployDeterministic(t *testing.T) {
	a, _ := Deploy(paperDeployment(), rng.New(7))
	b, _ := Deploy(paperDeployment(), rng.New(7))
	for i := range a.Nodes {
		if a.Nodes[i].Pos != b.Nodes[i].Pos {
			t.Fatalf("node %d placement differs across equal seeds", i)
		}
	}
}

func TestDeployValidation(t *testing.T) {
	cases := []Deployment{
		{N: 0, Side: 200, InitialEnergy: 5},
		{N: 10, Side: 0, InitialEnergy: 5},
		{N: 10, Side: 200, InitialEnergy: 0},
		{N: -5, Side: 200, InitialEnergy: 5},
		{N: 10, Side: math.Inf(1), InitialEnergy: 5},
		{N: 10, Side: 200, InitialEnergy: energy.Joules(math.NaN())},
		{N: 10, Side: 200, InitialEnergy: energy.Joules(math.Inf(1))},
	}
	for i, d := range cases {
		if _, err := Deploy(d, rng.New(1)); err == nil {
			t.Fatalf("case %d: invalid deployment %+v accepted", i, d)
		}
	}
}

func TestDeployCustomBS(t *testing.T) {
	bs := geom.Vec3{X: 0, Y: 0, Z: 0}
	d := paperDeployment()
	d.BS = &bs
	w, err := Deploy(d, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if w.BS != bs {
		t.Fatalf("BS = %v, want origin", w.BS)
	}
}

func TestFromPositions(t *testing.T) {
	pos := []geom.Vec3{{X: 1, Y: 1, Z: 1}, {X: 2, Y: 2, Z: 2}}
	en := []energy.Joules{3, 7}
	w, err := FromPositions(pos, en, geom.Cube(10), geom.Vec3{X: 5, Y: 5, Z: 5})
	if err != nil {
		t.Fatal(err)
	}
	if w.N() != 2 || w.InitialTotalEnergy() != 10 {
		t.Fatalf("N=%d total=%v", w.N(), w.InitialTotalEnergy())
	}
	if w.Nodes[1].Battery.Initial() != 7 {
		t.Fatal("per-node energy not honored")
	}
}

func TestFromPositionsValidation(t *testing.T) {
	box := geom.Cube(10)
	bs := box.Center()
	if _, err := FromPositions(nil, nil, box, bs); err == nil {
		t.Fatal("empty positions accepted")
	}
	if _, err := FromPositions([]geom.Vec3{{}}, []energy.Joules{1, 2}, box, bs); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FromPositions([]geom.Vec3{{X: math.NaN()}}, []energy.Joules{1}, box, bs); err == nil {
		t.Fatal("NaN position accepted")
	}
	for _, e := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := FromPositions([]geom.Vec3{{}, {}}, []energy.Joules{1, energy.Joules(e)}, box, bs); err == nil {
			t.Errorf("energy %v accepted", e)
		}
	}
}

func TestEnergyAccounting(t *testing.T) {
	w, _ := Deploy(Deployment{N: 4, Side: 10, InitialEnergy: 2}, rng.New(2))
	w.Nodes[0].Battery.Draw(1)
	w.Nodes[1].Battery.Draw(0.5)
	if got := w.TotalConsumed(); math.Abs(float64(got)-1.5) > 1e-12 {
		t.Fatalf("TotalConsumed = %v", got)
	}
	if got := w.TotalResidual(); math.Abs(float64(got)-6.5) > 1e-12 {
		t.Fatalf("TotalResidual = %v", got)
	}
}

func TestEstimatedMeanEnergyEq2(t *testing.T) {
	w, _ := Deploy(Deployment{N: 100, Side: 200, InitialEnergy: 5}, rng.New(3))
	// Eq. (2): Ē(r) = (1/N)·E_initial·(1−r/R); E_initial = 500 J here.
	if got := w.EstimatedMeanEnergy(0, 20); math.Abs(float64(got)-5) > 1e-12 {
		t.Fatalf("Ē(0) = %v, want 5", got)
	}
	if got := w.EstimatedMeanEnergy(10, 20); math.Abs(float64(got)-2.5) > 1e-12 {
		t.Fatalf("Ē(10) = %v, want 2.5", got)
	}
	if got := w.EstimatedMeanEnergy(20, 20); got != 0 {
		t.Fatalf("Ē(R) = %v, want 0", got)
	}
	// Past R the estimate clamps at zero rather than going negative.
	if got := w.EstimatedMeanEnergy(25, 20); got != 0 {
		t.Fatalf("Ē(R+5) = %v, want 0", got)
	}
}

func TestEstimatedMeanEnergyPanicsOnBadR(t *testing.T) {
	w, _ := Deploy(Deployment{N: 2, Side: 10, InitialEnergy: 1}, rng.New(4))
	defer func() {
		if recover() == nil {
			t.Fatal("EstimatedMeanEnergy(r, 0) did not panic")
		}
	}()
	w.EstimatedMeanEnergy(1, 0)
}

func TestAliveDeadTracking(t *testing.T) {
	w, _ := Deploy(Deployment{N: 3, Side: 10, InitialEnergy: 1}, rng.New(5))
	if _, dead := w.FirstDead(0); dead {
		t.Fatal("fresh network reported dead node")
	}
	if got := w.AliveCount(0); got != 3 {
		t.Fatalf("AliveCount = %d", got)
	}
	w.Nodes[1].Battery.Draw(1) // node 1 to zero
	id, dead := w.FirstDead(0)
	if !dead || id != 1 {
		t.Fatalf("FirstDead = (%d, %v)", id, dead)
	}
	if got := w.AliveIDsInto(0, nil); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("AliveIDsInto = %v", got)
	}
	// A higher death line kills nodes that still hold charge.
	if got := w.AliveCount(2); got != 0 {
		t.Fatalf("AliveCount(line=2) = %d", got)
	}
}

func TestDistToBS(t *testing.T) {
	pos := []geom.Vec3{{X: 0, Y: 0, Z: 0}}
	w, _ := FromPositions(pos, []energy.Joules{1}, geom.Cube(10), geom.Vec3{X: 3, Y: 4, Z: 0})
	if got := w.DistToBS(0); got != 5 {
		t.Fatalf("DistToBS = %v", got)
	}
}

func TestMeanDistToBSMatchesQuadrature(t *testing.T) {
	w, _ := Deploy(Deployment{N: 20000, Side: 200, InitialEnergy: 5}, rng.New(6))
	got := w.MeanDistToBS()
	want := geom.ExpectedMeanDistCubeToCenter(200)
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("mean dist to BS = %v, closed form %v", got, want)
	}
}

func TestConsumptionRates(t *testing.T) {
	w, _ := Deploy(Deployment{N: 2, Side: 10, InitialEnergy: 4}, rng.New(7))
	w.Nodes[0].Battery.Draw(1)
	rates := w.ConsumptionRates()
	if math.Abs(rates[0]-0.25) > 1e-12 || rates[1] != 0 {
		t.Fatalf("ConsumptionRates = %v", rates)
	}
}

func TestDeployHeterogeneous(t *testing.T) {
	// DEEC's two-tier setting: 20% advanced nodes with (1+3)·E0.
	d := Deployment{N: 100, Side: 200, InitialEnergy: 5, AdvancedFraction: 0.2, AdvancedFactor: 3}
	w, err := Deploy(d, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	advanced, normal := 0, 0
	for _, n := range w.Nodes {
		switch n.Battery.Initial() {
		case 5:
			normal++
		case 20:
			advanced++
		default:
			t.Fatalf("unexpected initial energy %v", n.Battery.Initial())
		}
	}
	if advanced != 20 || normal != 80 {
		t.Fatalf("advanced=%d normal=%d, want 20/80", advanced, normal)
	}
	// Total: 80·5 + 20·20 = 800 J.
	if w.InitialTotalEnergy() != 800 {
		t.Fatalf("total = %v", w.InitialTotalEnergy())
	}
}

func TestDeployHeterogeneousDeterministicSubset(t *testing.T) {
	d := Deployment{N: 50, Side: 100, InitialEnergy: 2, AdvancedFraction: 0.3, AdvancedFactor: 1}
	a, _ := Deploy(d, rng.New(22))
	b, _ := Deploy(d, rng.New(22))
	for i := range a.Nodes {
		if a.Nodes[i].Battery.Initial() != b.Nodes[i].Battery.Initial() {
			t.Fatal("advanced subset differs across equal seeds")
		}
	}
}

func TestDeployHeterogeneousValidation(t *testing.T) {
	base := Deployment{N: 10, Side: 100, InitialEnergy: 2}
	bad := base
	bad.AdvancedFraction = 1.5
	if _, err := Deploy(bad, rng.New(1)); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
	bad = base
	bad.AdvancedFraction = -0.1
	if _, err := Deploy(bad, rng.New(1)); err == nil {
		t.Fatal("negative fraction accepted")
	}
	bad = base
	bad.AdvancedFraction = 0.5
	bad.AdvancedFactor = 0
	if _, err := Deploy(bad, rng.New(1)); err == nil {
		t.Fatal("zero factor with advanced nodes accepted")
	}
}

// Property: total energy is conserved — consumed + residual == initial —
// under arbitrary draw sequences.
func TestNetworkEnergyConservationQuick(t *testing.T) {
	w, _ := Deploy(Deployment{N: 8, Side: 10, InitialEnergy: 3}, rng.New(8))
	f := func(node uint8, amount uint16) bool {
		w.Nodes[int(node)%8].Battery.Draw(energy.Joules(float64(amount) / 1e5))
		total := float64(w.TotalConsumed() + w.TotalResidual())
		return math.Abs(total-float64(w.InitialTotalEnergy())) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// inBox reports whether p lies in b, faces included, give or take 1e-9.
func inBox(b geom.AABB, p geom.Vec3) bool {
	lo, hi := b.Min.Sub(p), p.Sub(b.Max)
	return math.Max(lo.X, math.Max(lo.Y, lo.Z)) <= 1e-9 && math.Max(hi.X, math.Max(hi.Y, hi.Z)) <= 1e-9
}
