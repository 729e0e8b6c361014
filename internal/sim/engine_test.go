package sim

import (
	"context"
	"math"
	"testing"

	"qlec/internal/cluster"
	"qlec/internal/energy"
	"qlec/internal/network"
	"qlec/internal/rng"
)

// stubProtocol is a minimal controllable protocol for engine tests:
// fixed heads, nearest assignment, hold-and-burst.
type stubProtocol struct {
	net   *network.Network
	heads []int
	mode  cluster.RelayMode
	// hops overrides NextHop per node when non-nil.
	hops map[int]int

	outcomes int
	endCalls int
}

func (s *stubProtocol) Name() string { return "stub" }

func (s *stubProtocol) StartRound(round int) []int { return s.heads }

func (s *stubProtocol) NextHop(node int) int {
	if t, ok := s.hops[node]; ok {
		return t
	}
	for _, h := range s.heads {
		if h == node {
			return network.BSID
		}
	}
	a := cluster.AssignNearest(s.net, s.heads)
	return a.Head[node]
}

func (s *stubProtocol) OnOutcome(node, target int, success bool) { s.outcomes++ }
func (s *stubProtocol) EndRound(round int)                       { s.endCalls++ }
func (s *stubProtocol) RelayMode() cluster.RelayMode             { return s.mode }

func paperNet(t *testing.T, seed uint64) *network.Network {
	t.Helper()
	w, err := network.Deploy(network.Deployment{N: 100, Side: 200, InitialEnergy: 5}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mut := range []func(*Config){
		func(c *Config) { c.Bits = 0 },
		func(c *Config) { c.HelloBits = -1 },
		func(c *Config) { c.MeanInterArrival = 0 },
		func(c *Config) { c.RoundDuration = 0 },
		func(c *Config) { c.QueueCapacity = 0 },
		func(c *Config) { c.ServiceTime = -1 },
		func(c *Config) { c.MaxRetries = -1 },
		func(c *Config) { c.Compression = 0 },
		func(c *Config) { c.Compression = 1.5 },
		func(c *Config) { c.DeathLine = -1 },
		func(c *Config) { c.BitRate = 0 },
		func(c *Config) { c.LinkPMax = 0 },
		func(c *Config) { c.LinkRef = 0 },
		func(c *Config) { c.RetryBackoff = -1 },
		func(c *Config) { c.RetryBackoff = math.NaN() },      // a NaN delay would open an event class per retry
		func(c *Config) { c.MobilitySpeedMax = math.Inf(1) }, // a zero-pause node would never finish a step
	} {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("invalid config %+v accepted", c)
		}
	}
}

// TestConfigValidateRejectsNaN pins the NaN cases: a `x < 0` check
// passes NaN, and the engine's `> 0` guards would then switch
// contention, shadowing or mobility off without a word.
func TestConfigValidateRejectsNaN(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		field string
		mut   func(*Config)
	}{
		{"ContentionGamma", func(c *Config) { c.ContentionGamma = nan }},
		{"ShadowSigma", func(c *Config) { c.ShadowSigma = nan }},
		{"MobilitySpeedMin", func(c *Config) { c.MobilitySpeedMin = nan }},
		{"MobilitySpeedMax", func(c *Config) { c.MobilitySpeedMin, c.MobilitySpeedMax = 1, nan }},
		{"MobilityPause", func(c *Config) { c.MobilityPause = nan }},
		{"DeathLine", func(c *Config) { c.DeathLine = energy.Joules(nan) }},
	} {
		cfg := DefaultConfig()
		c.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s = NaN accepted", c.field)
		}
	}
	// The speed range check still holds for numbers.
	cfg := DefaultConfig()
	cfg.MobilitySpeedMin, cfg.MobilitySpeedMax = 3, 1
	if err := cfg.Validate(); err == nil {
		t.Error("mobility speed range [3, 1] accepted")
	}
}

func TestNewEngineValidation(t *testing.T) {
	w := paperNet(t, 1)
	if _, err := NewEngine(w, nil, energy.DefaultModel(), DefaultConfig()); err == nil {
		t.Fatal("nil protocol accepted")
	}
	bad := DefaultConfig()
	bad.Bits = 0
	if _, err := NewEngine(w, &stubProtocol{net: w}, energy.DefaultModel(), bad); err == nil {
		t.Fatal("bad config accepted")
	}
	if _, err := NewEngine(w, &stubProtocol{net: w}, energy.Model{}, DefaultConfig()); err == nil {
		t.Fatal("bad model accepted")
	}
}

func TestRunRejectsZeroRounds(t *testing.T) {
	w := paperNet(t, 2)
	e, _ := NewEngine(w, &stubProtocol{net: w, heads: []int{1, 2}}, energy.DefaultModel(), DefaultConfig())
	if _, err := e.Run(context.Background(), 0); err == nil {
		t.Fatal("Run(0) accepted")
	}
}

func TestIdleNetworkDeliversEverything(t *testing.T) {
	w := paperNet(t, 3)
	proto := &stubProtocol{net: w, heads: []int{10, 30, 50, 70, 90}}
	cfg := DefaultConfig()
	cfg.MeanInterArrival = 10 // very light traffic
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
	if res.Generated == 0 {
		t.Fatal("no packets generated")
	}
	if pdr := res.PDR(); pdr < 0.97 {
		t.Fatalf("idle-network PDR = %v (dropped %d of %d), want ≈1",
			pdr, res.DroppedTotal(), res.Generated)
	}
	if proto.endCalls != 5 {
		t.Fatalf("EndRound called %d times", proto.endCalls)
	}
	if proto.outcomes == 0 {
		t.Fatal("OnOutcome never called")
	}
}

func TestEnergyBookkeepingConsistent(t *testing.T) {
	w := paperNet(t, 4)
	proto := &stubProtocol{net: w, heads: []int{5, 25, 45, 65, 85}}
	e, _ := NewEngine(w, proto, energy.DefaultModel(), DefaultConfig())
	res, err := e.Run(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	// The engine's reported energy must equal the network's drawn total.
	if math.Abs(float64(res.TotalEnergy-w.TotalConsumed())) > 1e-9 {
		t.Fatalf("result energy %v != network consumed %v", res.TotalEnergy, w.TotalConsumed())
	}
	if res.TotalEnergy <= 0 {
		t.Fatal("no energy consumed by a 10-round run")
	}
	// Conservation: initial = residual + consumed.
	total := float64(totalResidual(w) + w.TotalConsumed())
	if math.Abs(total-float64(w.InitialTotalEnergy())) > 1e-9 {
		t.Fatal("network energy not conserved")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() ( /*pdr*/ float64 /*energy*/, float64, int) {
		w := paperNet(t, 5)
		proto := &stubProtocol{net: w, heads: []int{5, 25, 45, 65, 85}}
		e, _ := NewEngine(w, proto, energy.DefaultModel(), DefaultConfig())
		res, err := e.Run(context.Background(), 5)
		if err != nil {
			t.Fatal(err)
		}
		return res.PDR(), float64(res.TotalEnergy), res.Generated
	}
	p1, e1, g1 := run()
	p2, e2, g2 := run()
	if p1 != p2 || e1 != e2 || g1 != g2 {
		t.Fatalf("runs with identical seeds differ: (%v,%v,%d) vs (%v,%v,%d)", p1, e1, g1, p2, e2, g2)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	gen := func(seed uint64) int {
		w := paperNet(t, 6)
		proto := &stubProtocol{net: w, heads: []int{5, 25}}
		cfg := DefaultConfig()
		cfg.Seed = seed
		e, _ := NewEngine(w, proto, energy.DefaultModel(), cfg)
		res, _ := e.Run(context.Background(), 3)
		return res.Generated
	}
	if gen(1) == gen(2) {
		t.Log("generated counts equal across seeds (possible but unlikely); checking energy")
		// Not fatal by itself, but the RNG wiring should usually differ.
	}
}

func TestCongestionCausesQueueDrops(t *testing.T) {
	w := paperNet(t, 7)
	proto := &stubProtocol{net: w, heads: []int{50}} // one head for everyone
	cfg := DefaultConfig()
	cfg.MeanInterArrival = 0.5 // heavy traffic
	cfg.QueueCapacity = 4
	cfg.ServiceTime = 1.0
	e, _ := NewEngine(w, proto, energy.DefaultModel(), cfg)
	res, err := e.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.PDR() > 0.8 {
		t.Fatalf("overloaded single head kept PDR at %v; queueing model suspect", res.PDR())
	}
	if res.DroppedTotal() == 0 {
		t.Fatal("no drops under forced congestion")
	}
}

func TestLatencyGrowsWithCongestion(t *testing.T) {
	latency := func(lambda float64) float64 {
		w := paperNet(t, 8)
		proto := &stubProtocol{net: w, heads: []int{10, 30, 50, 70, 90}}
		cfg := DefaultConfig()
		cfg.MeanInterArrival = lambda
		e, _ := NewEngine(w, proto, energy.DefaultModel(), cfg)
		res, err := e.Run(context.Background(), 5)
		if err != nil {
			t.Fatal(err)
		}
		return res.Latency.Mean
	}
	idle := latency(10)
	busy := latency(1)
	if busy <= idle {
		t.Fatalf("latency under congestion (%v) not above idle (%v)", busy, idle)
	}
}

func TestStopOnDeath(t *testing.T) {
	w := paperNet(t, 9)
	proto := &stubProtocol{net: w, heads: []int{5, 25, 45, 65, 85}}
	cfg := DefaultConfig()
	// A death line just below the initial charge: the first node to pay
	// for anything nontrivial dies quickly.
	cfg.DeathLine = 4.9999
	cfg.StopOnDeath = true
	e, _ := NewEngine(w, proto, energy.DefaultModel(), cfg)
	res, err := e.Run(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lifespan == 0 {
		t.Fatal("no death recorded with an aggressive death line")
	}
	if res.Rounds != res.Lifespan {
		t.Fatalf("run continued past death: rounds %d, lifespan %d", res.Rounds, res.Lifespan)
	}
	if res.FirstDead < 0 {
		t.Fatal("FirstDead not recorded")
	}
}

func TestRunWithoutHeadsGoesDirectToBS(t *testing.T) {
	w := paperNet(t, 10)
	proto := &stubProtocol{net: w} // no heads: NextHop falls to BSID
	cfg := DefaultConfig()
	cfg.MeanInterArrival = 8
	e, _ := NewEngine(w, proto, energy.DefaultModel(), cfg)
	res, err := e.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("direct-to-BS packets never delivered")
	}
	// Direct transmission must be expensive: mean hop count 1.
	if res.Hops.Mean != 1 {
		t.Fatalf("direct-BS mean hops = %v, want 1", res.Hops.Mean)
	}
}

func TestForwardPerPacketMultiHop(t *testing.T) {
	// Chain: members → head 10; head 10 → head 20; head 20 → BS.
	w := paperNet(t, 11)
	proto := &stubProtocol{
		net:   w,
		heads: []int{10, 20},
		mode:  cluster.ForwardPerPacket,
		hops:  map[int]int{10: 20, 20: network.BSID},
	}
	// Route all members to head 10.
	for id := 0; id < w.N(); id++ {
		if id != 10 && id != 20 {
			proto.hops[id] = 10
		}
	}
	cfg := DefaultConfig()
	cfg.MeanInterArrival = 6
	e, _ := NewEngine(w, proto, energy.DefaultModel(), cfg)
	res, err := e.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("multi-hop chain delivered nothing")
	}
	// member→10→20→BS = 3 hops for member packets; heads' own packets
	// take 2 (10's) or 1 (20's).
	if res.Hops.Mean < 2.2 {
		t.Fatalf("mean hops %v too low for a 3-hop chain", res.Hops.Mean)
	}
	if res.Hops.Max != 3 {
		t.Fatalf("max hops %v, want 3", res.Hops.Max)
	}
}

func TestControlTrafficCharged(t *testing.T) {
	consumed := func(disable bool) float64 {
		w := paperNet(t, 12)
		proto := &stubProtocol{net: w, heads: []int{10, 30, 50, 70, 90}}
		cfg := DefaultConfig()
		cfg.MeanInterArrival = 1e9 // no data traffic at all
		cfg.DisableControlTraffic = disable
		e, _ := NewEngine(w, proto, energy.DefaultModel(), cfg)
		if _, err := e.Run(context.Background(), 3); err != nil {
			t.Fatal(err)
		}
		return float64(w.TotalConsumed())
	}
	with := consumed(false)
	without := consumed(true)
	if with <= without {
		t.Fatalf("control traffic not charged: with=%v without=%v", with, without)
	}
	if without != 0 {
		t.Fatalf("energy consumed with no traffic and no control: %v", without)
	}
}

func TestDeadNodesStopParticipating(t *testing.T) {
	w := paperNet(t, 13)
	// Kill half the nodes outright.
	for i := 0; i < 50; i++ {
		w.Nodes[i].Battery.Draw(5)
	}
	proto := &stubProtocol{net: w, heads: []int{60, 70, 80}}
	cfg := DefaultConfig()
	e, _ := NewEngine(w, proto, energy.DefaultModel(), cfg)
	res, err := e.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	// Dead nodes generate nothing; with λ=4s, 20s rounds, 3 rounds and
	// ~50 alive nodes, expect roughly 50·5·3 = 750 packets, not 1500.
	if res.Generated > 1000 {
		t.Fatalf("generated %d packets; dead nodes apparently transmitting", res.Generated)
	}
	for i := 0; i < 50; i++ {
		if w.Nodes[i].Battery.Consumed() != 5 {
			t.Fatalf("dead node %d consumed more energy after death", i)
		}
	}
}

func TestTransmissionToDeadHeadRetriesAndDrops(t *testing.T) {
	w := paperNet(t, 14)
	w.Nodes[10].Battery.Draw(5) // the only head is dead
	proto := &stubProtocol{net: w, heads: []int{10}}
	// Force all members at the dead head (no BS fallback).
	proto.hops = map[int]int{}
	for id := 1; id < w.N(); id++ {
		proto.hops[id] = 10
	}
	cfg := DefaultConfig()
	cfg.MeanInterArrival = 5
	e, _ := NewEngine(w, proto, energy.DefaultModel(), cfg)
	res, err := e.Run(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 0 {
		t.Fatalf("delivered %d packets through a dead head", res.Delivered)
	}
	if res.DroppedTotal() != res.Generated {
		t.Fatalf("drops %d != generated %d", res.DroppedTotal(), res.Generated)
	}
}

func TestPerRoundStatsSumToTotals(t *testing.T) {
	w := paperNet(t, 15)
	proto := &stubProtocol{net: w, heads: []int{10, 30, 50}}
	e, _ := NewEngine(w, proto, energy.DefaultModel(), DefaultConfig())
	res, err := e.Run(context.Background(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(res.PerRound) != 6 {
		t.Fatalf("per-round entries = %d", len(res.PerRound))
	}
	for i, rs := range res.PerRound {
		if rs.Round != i {
			t.Fatalf("round index %d at position %d", rs.Round, i)
		}
		if rs.Heads != 3 {
			t.Fatalf("round %d heads = %d", i, rs.Heads)
		}
	}
}

func TestConsumptionRatesPopulated(t *testing.T) {
	w := paperNet(t, 16)
	proto := &stubProtocol{net: w, heads: []int{10, 30, 50}}
	e, _ := NewEngine(w, proto, energy.DefaultModel(), DefaultConfig())
	res, _ := e.Run(context.Background(), 3)
	if len(res.ConsumptionRates) != 100 {
		t.Fatalf("consumption rates length %d", len(res.ConsumptionRates))
	}
	any := false
	for _, r := range res.ConsumptionRates {
		if r < 0 || r > 1 {
			t.Fatalf("consumption rate %v outside [0,1]", r)
		}
		if r > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("no node consumed anything")
	}
}

func TestBSQueueBoundsDirectTraffic(t *testing.T) {
	// All 100 nodes firing straight at the BS at λ=1 offer ~100 pkt/s
	// against the BS's 50 pkt/s pipeline: about half must be dropped at
	// the BS queue — the "burden of the base station" of §4.2.
	w := paperNet(t, 30)
	proto := &stubProtocol{net: w} // no heads → everyone direct to BS
	cfg := DefaultConfig()
	cfg.MeanInterArrival = 1
	e, _ := NewEngine(w, proto, energy.DefaultModel(), cfg)
	res, err := e.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.PDR() > 0.75 {
		t.Fatalf("direct overload PDR = %v; BS queue not binding", res.PDR())
	}
	if res.Dropped[1] == 0 { // metrics.DropQueue
		t.Fatal("no queue drops at the BS under overload")
	}
	// Under light traffic the BS keeps up and nothing is lost there.
	w2 := paperNet(t, 30)
	cfg.MeanInterArrival = 10
	e2, _ := NewEngine(w2, &stubProtocol{net: w2}, energy.DefaultModel(), cfg)
	res2, err := e2.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res2.PDR() < 0.97 {
		t.Fatalf("light direct traffic PDR = %v", res2.PDR())
	}
}

func TestBSServiceAddsLatency(t *testing.T) {
	// Direct packets now wait in the BS pipeline; latency must reflect
	// service time at minimum.
	w := paperNet(t, 31)
	proto := &stubProtocol{net: w}
	cfg := DefaultConfig()
	cfg.MeanInterArrival = 10
	e, _ := NewEngine(w, proto, energy.DefaultModel(), cfg)
	res, err := e.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Min < cfg.TxDelay(cfg.Bits)+cfg.BSServiceTime-1e-9 {
		t.Fatalf("min latency %v below tx+service floor", res.Latency.Min)
	}
}

func TestEnergyBreakdownSumsToTotal(t *testing.T) {
	w := paperNet(t, 32)
	proto := &stubProtocol{net: w, heads: []int{10, 30, 50, 70, 90}}
	e, _ := NewEngine(w, proto, energy.DefaultModel(), DefaultConfig())
	res, err := e.Run(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	sum := float64(res.Energy.Tx + res.Energy.Rx + res.Energy.Fusion + res.Energy.Control)
	if math.Abs(sum-float64(res.TotalEnergy)) > 1e-9 {
		t.Fatalf("breakdown sums to %v, total %v — an unclassified draw site exists",
			sum, float64(res.TotalEnergy))
	}
	for name, v := range map[string]float64{
		"tx":      float64(res.Energy.Tx),
		"rx":      float64(res.Energy.Rx),
		"fusion":  float64(res.Energy.Fusion),
		"control": float64(res.Energy.Control),
	} {
		if v <= 0 {
			t.Fatalf("energy category %s empty under normal traffic", name)
		}
	}
	// Transmit energy dominates in the first-order radio model.
	if res.Energy.Tx < res.Energy.Fusion {
		t.Fatalf("tx %v below fusion %v; classification suspicious",
			res.Energy.Tx, res.Energy.Fusion)
	}
}

func TestTxDelay(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.TxDelay(250e3); math.Abs(got-1) > 1e-12 {
		t.Fatalf("TxDelay = %v, want 1s", got)
	}
}

// totalResidual returns the summed residual energy of w's nodes.
func totalResidual(w *network.Network) energy.Joules {
	var total energy.Joules
	for _, n := range w.Nodes {
		total += n.Battery.Residual()
	}
	return total
}
