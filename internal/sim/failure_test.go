package sim

// Failure-injection tests: the engine must stay correct (conservation,
// accounting, termination) under hostile conditions — terrible links,
// self-looping protocols, heads dying mid-round, zero service capacity.

import (
	"context"
	"math"
	"testing"

	"qlec/internal/cluster"
	"qlec/internal/energy"
	"qlec/internal/geom"
	"qlec/internal/network"
	"qlec/internal/rng"
)

func TestTerribleLinksLoseMostPacketsButConserveEnergy(t *testing.T) {
	w := paperNet(t, 20)
	proto := &stubProtocol{net: w, heads: []int{10, 30, 50}}
	cfg := DefaultConfig()
	cfg.LinkPMax = 0.05 // 95 % of attempts fail at point blank
	e, _ := NewEngine(w, proto, energy.DefaultModel(), cfg)
	res, err := e.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.PDR() > 0.2 {
		t.Fatalf("PDR %v with 5%% links", res.PDR())
	}
	if res.Dropped[0] == 0 { // DropLink
		t.Fatal("no link drops recorded")
	}
	total := float64(totalResidual(w) + w.TotalConsumed())
	if math.Abs(total-float64(w.InitialTotalEnergy())) > 1e-9 {
		t.Fatal("energy not conserved under failure storm")
	}
}

// selfLoopProtocol routes everyone to themselves — a worst-case buggy
// protocol. The engine must neither livelock nor deliver anything.
type selfLoopProtocol struct{ n int }

func (p *selfLoopProtocol) Name() string                        { return "self-loop" }
func (p *selfLoopProtocol) StartRound(round int) []int          { return []int{0} }
func (p *selfLoopProtocol) NextHop(node int) int                { return node }
func (p *selfLoopProtocol) OnOutcome(node, target int, ok bool) {}
func (p *selfLoopProtocol) EndRound(round int)                  {}
func (p *selfLoopProtocol) RelayMode() cluster.RelayMode        { return cluster.HoldAndBurst }

func TestSelfLoopProtocolTerminates(t *testing.T) {
	w := paperNet(t, 21)
	cfg := DefaultConfig()
	cfg.MeanInterArrival = 5
	e, _ := NewEngine(w, &selfLoopProtocol{n: w.N()}, energy.DefaultModel(), cfg)
	res, err := e.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	// Node 0 is a head routing to itself at distance zero: its own
	// packets enter its queue; everyone else transmits to themselves
	// (no queue) and drops after retries.
	if res.PDR() > 0.2 {
		t.Fatalf("self-loop protocol delivered PDR %v", res.PDR())
	}
}

// cycleProtocol builds a two-head relay cycle under ForwardPerPacket;
// the engine's hop guard must cut it.
type cycleProtocol struct{ net *network.Network }

func (p *cycleProtocol) Name() string               { return "cycle" }
func (p *cycleProtocol) StartRound(round int) []int { return []int{1, 2} }
func (p *cycleProtocol) NextHop(node int) int {
	switch node {
	case 1:
		return 2
	case 2:
		return 1
	default:
		return 1
	}
}
func (p *cycleProtocol) OnOutcome(node, target int, ok bool) {}
func (p *cycleProtocol) EndRound(round int)                  {}
func (p *cycleProtocol) RelayMode() cluster.RelayMode        { return cluster.ForwardPerPacket }

func TestRelayCycleIsCutByHopGuard(t *testing.T) {
	w := paperNet(t, 22)
	cfg := DefaultConfig()
	cfg.MeanInterArrival = 8
	e, _ := NewEngine(w, &cycleProtocol{net: w}, energy.DefaultModel(), cfg)
	res, err := e.Run(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 0 {
		t.Fatalf("cyclic relay delivered %d packets", res.Delivered)
	}
}

func TestHeadDyingMidRoundStrandsQueue(t *testing.T) {
	w := paperNet(t, 23)
	// Head 10 has just enough charge to accept a few packets before the
	// death line cuts it off.
	drained := w.Nodes[10].Battery
	drained.Draw(drained.Residual() - 0.002)
	proto := &stubProtocol{net: w, heads: []int{10}}
	proto.hops = map[int]int{}
	for id := 0; id < w.N(); id++ {
		if id != 10 {
			proto.hops[id] = 10
		}
	}
	cfg := DefaultConfig()
	cfg.DeathLine = 0.001
	cfg.MeanInterArrival = 2
	e, _ := NewEngine(w, proto, energy.DefaultModel(), cfg)
	res, err := e.Run(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	// The head dies early; nearly everything is lost, nothing panics,
	// and at least some loss is attributed to the dead head.
	if res.PDR() > 0.5 {
		t.Fatalf("PDR %v through a dying head", res.PDR())
	}
}

func TestZeroServiceTimeIsInstantFusion(t *testing.T) {
	w := paperNet(t, 24)
	proto := &stubProtocol{net: w, heads: []int{10, 30, 50, 70, 90}}
	cfg := DefaultConfig()
	cfg.ServiceTime = 0 // infinitely fast heads: queue never the bottleneck
	cfg.MeanInterArrival = 1
	e, _ := NewEngine(w, proto, energy.DefaultModel(), cfg)
	res, err := e.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped[1] != 0 { // DropQueue
		t.Fatalf("queue drops with zero service time: %d", res.Dropped[1])
	}
	if res.PDR() < 0.95 {
		t.Fatalf("PDR %v with infinite service capacity", res.PDR())
	}
}

func TestAllNodesDeadFromStart(t *testing.T) {
	w := paperNet(t, 25)
	for _, n := range w.Nodes {
		n.Battery.Draw(5)
	}
	proto := &stubProtocol{net: w}
	e, _ := NewEngine(w, proto, energy.DefaultModel(), DefaultConfig())
	res, err := e.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != 0 || res.TotalEnergy != 0 {
		t.Fatalf("dead network generated %d packets, consumed %v",
			res.Generated, res.TotalEnergy)
	}
}

func TestBatchBurstFailureAccountsAllPackets(t *testing.T) {
	w := paperNet(t, 26)
	proto := &stubProtocol{net: w, heads: []int{10}}
	cfg := DefaultConfig()
	cfg.LinkPMax = 1e-9 // in-round hops fail too, but at d=0 self-queue works
	cfg.BatchRetries = 1
	cfg.MeanInterArrival = 4
	e, _ := NewEngine(w, proto, energy.DefaultModel(), cfg)
	res, err := e.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	// The head's own packets reach its queue without radio; the burst
	// then fails, so they must be counted as batch drops, not lost.
	if res.Dropped[2] == 0 { // DropBatch
		t.Fatal("no batch drops under hopeless links")
	}
	if res.Delivered != 0 {
		t.Fatalf("delivered %d with hopeless links", res.Delivered)
	}
}

// Property-flavoured stress: random small configs must always satisfy
// the conservation and accounting invariants.
func TestRandomConfigsKeepInvariants(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 25; trial++ {
		n := 10 + r.Intn(40)
		w, err := network.Deploy(network.Deployment{
			N: n, Side: 50 + float64(r.Intn(300)), InitialEnergy: energy.Joules(0.5 + r.Float64()*5),
		}, rng.New(uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		var heads []int
		for h := 0; h < 1+r.Intn(4); h++ {
			heads = append(heads, r.Intn(n))
		}
		heads = dedupe(heads)
		proto := &stubProtocol{net: w, heads: heads}
		cfg := DefaultConfig()
		cfg.MeanInterArrival = 0.5 + r.Float64()*8
		cfg.QueueCapacity = 1 + r.Intn(30)
		cfg.ServiceTime = r.Float64()
		cfg.MaxRetries = r.Intn(4)
		cfg.LinkPMax = 0.2 + 0.79*r.Float64()
		cfg.Seed = uint64(trial * 7)
		e, err := NewEngine(w, proto, energy.DefaultModel(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(context.Background(), 1+r.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		total := float64(totalResidual(w) + w.TotalConsumed())
		if math.Abs(total-float64(w.InitialTotalEnergy())) > 1e-9 {
			t.Fatalf("trial %d: energy not conserved", trial)
		}
	}
}

func TestShadowingDeterministicAndHeterogeneous(t *testing.T) {
	w := paperNet(t, 40)
	cfg := DefaultConfig()
	cfg.ShadowSigma = 0.8
	e1, _ := NewEngine(w, &stubProtocol{net: w, heads: []int{10}}, energy.DefaultModel(), cfg)
	// Factors are deterministic per (seed, pair) and independent of
	// lookup order.
	f1 := e1.shadowFactor(3, 10)
	f2 := e1.shadowFactor(7, 10)
	e2, _ := NewEngine(w, &stubProtocol{net: w, heads: []int{10}}, energy.DefaultModel(), cfg)
	if e2.shadowFactor(7, 10) != f2 || e2.shadowFactor(3, 10) != f1 {
		t.Fatal("shadow factors depend on lookup order or engine instance")
	}
	// Heterogeneity: with σ=0.8 the factors spread widely.
	lo, hi := math.Inf(1), math.Inf(-1)
	for from := 0; from < 50; from++ {
		f := e1.shadowFactor(from, 10)
		if f <= 0 {
			t.Fatalf("non-positive shadow factor %v", f)
		}
		lo = math.Min(lo, f)
		hi = math.Max(hi, f)
	}
	if hi/lo < 3 {
		t.Fatalf("shadow factors too uniform: [%v, %v]", lo, hi)
	}
}

func TestShadowingDisabledMatchesBaseModel(t *testing.T) {
	w := paperNet(t, 41)
	cfg := DefaultConfig() // ShadowSigma = 0
	e, _ := NewEngine(w, &stubProtocol{net: w, heads: []int{10}}, energy.DefaultModel(), cfg)
	d := e.dist(3, 10)
	want := cfg.LinkPMax * math.Exp(-(d/cfg.LinkRef)*(d/cfg.LinkRef))
	e.setupHeads([]int{10})
	var pBase float64
	for i := 0; i < 2; i++ { // a memo miss, then a hit
		if _, pBase = e.main.geom(3, 10); math.Abs(pBase-want) > 1e-12 {
			t.Fatalf("geom base probability = %v, want %v", pBase, want)
		}
	}
	if got := e.main.linkP(3, 10, pBase); math.Abs(got-want) > 1e-12 {
		t.Fatalf("linkP with shadowing off = %v, want %v", got, want)
	}
}

func TestShadowingLowersDelivery(t *testing.T) {
	run := func(sigma float64) float64 {
		w := paperNet(t, 42)
		proto := &stubProtocol{net: w, heads: []int{10, 30, 50, 70, 90}}
		cfg := DefaultConfig()
		cfg.ShadowSigma = sigma
		cfg.MeanInterArrival = 6
		cfg.MaxRetries = 0 // expose raw link quality
		e, _ := NewEngine(w, proto, energy.DefaultModel(), cfg)
		res, err := e.Run(context.Background(), 3)
		if err != nil {
			t.Fatal(err)
		}
		return res.PDR()
	}
	clean := run(0)
	shadowed := run(1.0)
	if shadowed >= clean {
		t.Fatalf("shadowing did not lower delivery: %v vs %v", shadowed, clean)
	}
}

func TestContentionDegradesBusyChannels(t *testing.T) {
	run := func(gamma, lambda float64) float64 {
		w := paperNet(t, 45)
		proto := &stubProtocol{net: w, heads: []int{10, 30, 50, 70, 90}}
		cfg := DefaultConfig()
		cfg.ContentionGamma = gamma
		cfg.MeanInterArrival = lambda
		e, _ := NewEngine(w, proto, energy.DefaultModel(), cfg)
		res, err := e.Run(context.Background(), 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(); err != nil {
			t.Fatal(err)
		}
		return res.PDR()
	}
	// Heavy traffic: contention must bite.
	busyOff := run(0, 1)
	busyOn := run(0.3, 1)
	if busyOn >= busyOff {
		t.Fatalf("contention did not degrade busy channel: %v vs %v", busyOn, busyOff)
	}
	// Light traffic: nearly no concurrent transmissions, so nearly no
	// effect.
	idleOff := run(0, 20)
	idleOn := run(0.3, 20)
	if idleOff-idleOn > 0.05 {
		t.Fatalf("contention bit an idle channel: %v vs %v", idleOn, idleOff)
	}
}

func TestContentionValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ContentionGamma = -0.1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative gamma accepted")
	}
}

func TestMobilityMovesNodesBetweenRounds(t *testing.T) {
	w := paperNet(t, 43)
	before := w.Positions()
	proto := &stubProtocol{net: w, heads: []int{10, 30, 50}}
	cfg := DefaultConfig()
	cfg.MobilitySpeedMin = 2
	cfg.MobilitySpeedMax = 5
	e, err := NewEngine(w, proto, energy.DefaultModel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i, p := range w.Positions() {
		if p.Dist(before[i]) > 1 {
			moved++
		}
	}
	if moved < 90 {
		t.Fatalf("only %d/100 nodes moved over 5 rounds of mobility", moved)
	}
	// Everyone stays deployable.
	for i, p := range w.Positions() {
		if !inBox(w.Box, p) {
			t.Fatalf("node %d left the box: %v", i, p)
		}
	}
}

func TestStaticConfigKeepsPositions(t *testing.T) {
	w := paperNet(t, 44)
	before := w.Positions()
	proto := &stubProtocol{net: w, heads: []int{10, 30}}
	e, _ := NewEngine(w, proto, energy.DefaultModel(), DefaultConfig())
	if _, err := e.Run(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	for i, p := range w.Positions() {
		if p != before[i] {
			t.Fatalf("node %d moved without mobility configured", i)
		}
	}
}

func TestMobilityConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MobilitySpeedMin = 5
	cfg.MobilitySpeedMax = 2
	if err := cfg.Validate(); err == nil {
		t.Fatal("inverted speed range accepted")
	}
	cfg = DefaultConfig()
	cfg.MobilityPause = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative pause accepted")
	}
	cfg = DefaultConfig()
	cfg.MobilitySpeedMin = -1
	cfg.MobilitySpeedMax = 1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative min speed accepted")
	}
}

func dedupe(xs []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// inBox reports whether p lies in b, faces included, give or take 1e-9.
func inBox(b geom.AABB, p geom.Vec3) bool {
	lo, hi := b.Min.Sub(p), p.Sub(b.Max)
	return math.Max(lo.X, math.Max(lo.Y, lo.Z)) <= 1e-9 && math.Max(hi.X, math.Max(hi.Y, hi.Z)) <= 1e-9
}
