package sim

import (
	"testing"

	"qlec/internal/cluster"
	"qlec/internal/energy"
	"qlec/internal/metrics"
	"qlec/internal/packet"
)

// TestServiceTieDoesNotDoubleSchedule reproduces the exact-tie scheduling
// bug: an arrival landing at precisely the pending service's completion
// time used to pass the old `busyUntil > now` guard (busyUntil == now is
// not strictly greater) while the evService event was still in the heap,
// starting a second concurrent fusion chain for the same head. With fixed
// ServiceTime/TxDelay/RetryBackoff deltas such ties are reachable. The
// pending flag must make the second scheduleService a no-op.
func TestServiceTieDoesNotDoubleSchedule(t *testing.T) {
	w := paperNet(t, 40)
	proto := &stubProtocol{net: w, heads: []int{10}}
	cfg := DefaultConfig()
	e, err := NewEngine(w, proto, energy.DefaultModel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.setupHeads([]int{10})
	e.main.hold = true // runEvents caches the protocol's HoldAndBurst mode per round

	// First packet arrives at t=0 and arms the pipeline.
	e.queues[10].Push(packet.Packet{ID: 1, Bits: cfg.Bits})
	e.main.scheduleService(10)

	// Second packet arrives at exactly the service completion instant,
	// before the pending evService has been popped — the colliding
	// sequence handleArrive would produce.
	e.main.now += cfg.ServiceTime
	e.queues[10].Push(packet.Packet{ID: 2, Bits: cfg.Bits})
	e.main.scheduleService(10)

	services := 0
	for ev := e.main.events.Pop(); ev != nil; ev = e.main.events.Pop() {
		if ev.kind == evService {
			services++
		}
	}
	if services != 1 {
		t.Fatalf("exact-tie arrival scheduled %d concurrent evService events, want 1", services)
	}

	// The single chain still drains both packets: completing the first
	// service re-arms for the second.
	e.main.handleService(&event{t: e.main.now, kind: evService, node: 10})
	if e.queues[10].Len() != 1 {
		t.Fatalf("first service left %d packets queued, want 1", e.queues[10].Len())
	}
	if !e.servicePending[10] {
		t.Fatal("service chain not re-armed with packets still queued")
	}
	if ev := e.main.events.Pop(); ev == nil || ev.kind != evService {
		t.Fatalf("re-armed event missing or wrong kind: %+v", ev)
	}
}

// TestForwardChainInstantLoopGuard drives the end-of-round relay chain
// with a protocol that cycles between two heads forever: the 32-hop guard
// must abandon the packet as a link drop instead of spinning.
func TestForwardChainInstantLoopGuard(t *testing.T) {
	w := paperNet(t, 41)
	proto := &stubProtocol{
		net:   w,
		heads: []int{10, 20},
		mode:  cluster.ForwardPerPacket,
		hops:  map[int]int{10: 20, 20: 10}, // cycle, never the BS
	}
	cfg := DefaultConfig()
	cfg.LinkRef = 1e9 // hops essentially always succeed; only the guard stops the chain
	e, err := NewEngine(w, proto, energy.DefaultModel(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	e.main.forwardChainInstant(10, packet.Packet{ID: 7, Bits: cfg.Bits, Hops: 1})

	if got := e.round.Dropped[metrics.DropLink]; got != 1 {
		t.Fatalf("loop guard recorded %d DropLink, want 1 (all drops: %v)", got, e.round.Dropped)
	}
	if e.round.Dropped[metrics.DropDead] != 0 {
		t.Fatalf("cycling chain drained a node to death: %v", e.round.Dropped)
	}
	if e.round.Delivered != 0 {
		t.Fatal("cycling chain delivered a packet")
	}
	// One successful radio hop per iteration before the guard fires.
	if proto.outcomes < 32 {
		t.Fatalf("chain stopped after %d hops, want the full 32-hop guard", proto.outcomes)
	}
}

// TestForwardChainInstantDeadHolderRetries is the directed case for the
// end-of-round relay chain with a holder that dies mid-hop: the head can
// afford less than one transmit and every attempt fails. Unlike burst,
// forwardChainInstant checks that the holder is alive once per hop, not
// per attempt, so all MaxRetries retries still go out from a dead node
// and the packet ends as a link drop. This test pins that behaviour.
// Re-checking per attempt changes results, so that fix waits for a
// model epoch in the content address; it must then expect one attempt
// and a DropDead, as TestBurstDeadHeadDropsBatch does for burst.
func TestForwardChainInstantDeadHolderRetries(t *testing.T) {
	w := paperNet(t, 43)
	proto := &stubProtocol{net: w, heads: []int{10}, mode: cluster.ForwardPerPacket}
	cfg := DefaultConfig()
	cfg.LinkPMax = 0.01 // every attempt essentially always fails
	cfg.LinkRef = 1
	e, err := NewEngine(w, proto, energy.DefaultModel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.setupHeads([]int{10})

	b := w.Nodes[10].Battery
	b.Draw(b.Residual() - 1e-9)
	e.main.forwardChainInstant(10, packet.Packet{ID: 1, Bits: cfg.Bits, Hops: 1})

	if e.alive(10) {
		t.Fatal("head survived a transmit it could not afford")
	}
	if proto.outcomes != cfg.MaxRetries+1 {
		t.Fatalf("OnOutcome called %d times, want %d: the first attempt and %d retries by a dead holder",
			proto.outcomes, cfg.MaxRetries+1, cfg.MaxRetries)
	}
	if got := e.round.Dropped[metrics.DropLink]; got != 1 {
		t.Fatalf("recorded %d DropLink, want 1 (all drops: %v)", got, e.round.Dropped)
	}
}

// TestBurstDeadHeadDropsBatch exercises the mid-retry death break in
// burst: the head is alive for the first attempt, pays the transmit cost,
// dies, and the retry loop must break — every buffered packet becomes a
// DropBatch, never a delivery.
func TestBurstDeadHeadDropsBatch(t *testing.T) {
	w := paperNet(t, 42)
	proto := &stubProtocol{net: w, heads: []int{10}}
	cfg := DefaultConfig()
	cfg.LinkPMax = 0.01 // first attempt essentially always fails
	cfg.LinkRef = 1
	e, err := NewEngine(w, proto, energy.DefaultModel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.setupHeads([]int{10})

	// Leave the head barely alive: the first burst attempt's transmit
	// draw empties the battery.
	b := w.Nodes[10].Battery
	b.Draw(b.Residual() - 1e-9)
	if !e.alive(10) {
		t.Fatal("head should start the burst alive")
	}

	e.fused[10].bits = 3 * cfg.Bits
	e.fused[10].pkts = append(e.fused[10].pkts,
		packet.Packet{ID: 1, Bits: cfg.Bits, Hops: 1},
		packet.Packet{ID: 2, Bits: cfg.Bits, Hops: 1},
		packet.Packet{ID: 3, Bits: cfg.Bits, Hops: 1})
	e.main.burst(10)

	if e.alive(10) {
		t.Fatal("head survived a transmit it could not afford")
	}
	if got := e.round.Dropped[metrics.DropBatch]; got != 3 {
		t.Fatalf("dead-head burst recorded %d DropBatch, want 3 (all drops: %v)", got, e.round.Dropped)
	}
	if e.round.Delivered != 0 {
		t.Fatal("dead head delivered its batch")
	}
	if e.fused[10].bits != 0 || len(e.fused[10].pkts) != 0 {
		t.Fatal("fused buffer not cleared after the failed burst")
	}
	// Only the first attempt was paid: the head had under one transmit's
	// worth of charge, and the break must stop further draws.
	if proto.outcomes != 1 {
		t.Fatalf("OnOutcome called %d times, want exactly 1 before the death break", proto.outcomes)
	}
}
