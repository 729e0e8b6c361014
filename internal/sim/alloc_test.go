package sim

import (
	"context"
	"runtime"
	"testing"

	"qlec/internal/cluster"
	"qlec/internal/energy"
	"qlec/internal/network"
	"qlec/internal/rng"
)

// fixedProto is a zero-allocation protocol: fixed heads, hop map
// computed once. It isolates the round kernel's own allocation behavior
// from per-round protocol work (real selectors re-cluster every round).
type fixedProto struct {
	heads []int
	hop   []int
}

func (p *fixedProto) Name() string                        { return "fixed" }
func (p *fixedProto) StartRound(round int) []int          { return p.heads }
func (p *fixedProto) NextHop(node int) int                { return p.hop[node] }
func (p *fixedProto) OnOutcome(node, target int, ok bool) {}
func (p *fixedProto) EndRound(round int)                  {}
func (p *fixedProto) RelayMode() cluster.RelayMode        { return cluster.HoldAndBurst }

func newFixedProto(w *network.Network, heads []int) *fixedProto {
	p := &fixedProto{heads: heads, hop: make([]int, w.N())}
	a := cluster.AssignNearest(w, heads)
	for id := range p.hop {
		p.hop[id] = a.Head[id]
	}
	for _, h := range heads {
		p.hop[h] = network.BSID
	}
	return p
}

// TestRoundKernelAllocs puts a ceiling on the batched round kernel's
// steady-state allocation rate: after the first round has sized every
// reusable buffer (event slab, generation schedule, lane node list,
// queue pool), later rounds must stay nearly allocation-free. The
// ceiling leaves headroom only for amortized growth of the per-round
// result slice and incidental runtime noise.
func TestRoundKernelAllocs(t *testing.T) {
	w := paperNet(t, 51)
	proto := newFixedProto(w, []int{10, 30, 50, 70, 90})
	e, err := NewEngine(w, proto, energy.DefaultModel(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(1000); err != nil {
		t.Fatal(err)
	}
	round := 0
	for ; round < 3; round++ { // warm the buffers
		e.runRound(round)
	}
	allocs := testing.AllocsPerRun(20, func() {
		e.runRound(round)
		round++
	})
	if allocs > 8 {
		t.Fatalf("steady-state round allocates %.1f objects, want <= 8", allocs)
	}
}

// TestEngineMemoryFig4Shape pins the engine's memory at the Fig. 4
// shape (N=2896, k=272): NewEngine plus the first Step allocates O(N)
// bytes, with no link-geometry state per (node, head) pair. The
// N·(k+1)·20 B cache the per-sender memo replaced was 15.8 MB on its
// own. The protocol allocates nothing after construction, so the bytes
// are the engine's.
func TestEngineMemoryFig4Shape(t *testing.T) {
	w, err := network.Deploy(network.Deployment{N: 2896, Side: 1000, InitialEnergy: 5}, rng.New(52))
	if err != nil {
		t.Fatal(err)
	}
	heads := make([]int, 272)
	for j := range heads {
		heads[j] = j * w.N() / len(heads)
	}
	proto := newFixedProto(w, heads)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := NewEngine(w, proto, energy.DefaultModel(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	b := after.TotalAlloc - before.TotalAlloc
	t.Logf("NewEngine + first Step at N=%d, k=%d: %d bytes", w.N(), len(heads), b)
	if b > 5<<20 { // measured ≈3.9 MB; with the N·(k+1) cache ≈19.7 MB
		t.Errorf("NewEngine + first Step at N=%d, k=%d allocated %d bytes, want under 5 MB", w.N(), len(heads), b)
	}
}
