package sim

import (
	"math"

	"qlec/internal/cluster"
	"qlec/internal/energy"
	"qlec/internal/metrics"
	"qlec/internal/network"
	"qlec/internal/packet"
)

// lane is the round's event-processing kernel: the event queue, the
// generation schedule and the virtual clock. Engine.main is the only
// lane. It owns every node and writes straight into the engine's
// accumulators, so observation order — and therefore every Welford
// intermediate — matches the historical single-heap event loop exactly.
type lane struct {
	e *Engine

	nodes []int32 // node ids alive at round start (generation sources)
	hold  bool    // RelayMode cached for the round

	events   eventQueue
	genSched []genPoint // flat per-round generation schedule, sorted by (t, node)
	genIdx   int        // next unprocessed genSched entry
	genTmp   []genPoint // bucketSortGen scratch, reused across rounds
	genCount []int32    // bucketSortGen bucket starts, reused across rounds

	seq       uint64
	now       float64
	inFlight  int
	nextPkt   packet.ID
	bsPending bool
}

// pushAt schedules a new event d seconds from now, built in place in
// its delay class's ring. Callers fill the returned slot's remaining
// fields immediately; the (t, seq) ordering key is already set.
func (l *lane) pushAt(d float64, kind eventKind) *event {
	ev := l.events.Push(l.now, d, l.seq)
	ev.kind = kind
	l.seq++
	return ev
}

// trace emits an event, stamped with the lane clock and the current
// round, if a tracer is installed.
func (l *lane) trace(ev TraceEvent) {
	if l.e.tracer != nil {
		ev.Time = l.now
		ev.Round = l.e.curRound
		l.e.tracer(ev)
	}
}

// Classified battery draws: every energy expenditure goes through one
// of these so Result.Energy's categories always sum to TotalEnergy and
// the audit ledger sees every joule. The ledger records the amount the
// battery actually drew (clamped at empty), not the amount requested.
// pkt/hasPkt attribute the draw to a packet where one exists; aggregate
// draws (burst transmissions) pass hasPkt=false.
func (l *lane) drawTx(id int, amount energy.Joules, pkt packet.ID, hasPkt bool) {
	d := l.e.net.Nodes[id].Battery.Draw(amount)
	l.e.breakdown.Tx += d
	if l.e.auditor != nil {
		l.e.auditEnergyAt(l.now, CauseTx, id, d, pkt, hasPkt)
	}
}

func (l *lane) drawRx(id int, amount energy.Joules, pkt packet.ID, hasPkt bool) {
	d := l.e.net.Nodes[id].Battery.Draw(amount)
	l.e.breakdown.Rx += d
	if l.e.auditor != nil {
		l.e.auditEnergyAt(l.now, CauseRx, id, d, pkt, hasPkt)
	}
}

func (l *lane) drawFusion(id int, amount energy.Joules, pkt packet.ID, hasPkt bool) {
	d := l.e.net.Nodes[id].Battery.Draw(amount)
	l.e.breakdown.Fusion += d
	if l.e.auditor != nil {
		l.e.auditEnergyAt(l.now, CauseFusion, id, d, pkt, hasPkt)
	}
}

// geom returns the hop distance and the base channel probability
// LinkPMax·exp(−(d/LinkRef)²) for a (from, target) link, served from the
// sender's memo entry when it holds this round's geometry for the same
// target (see Engine.geomMemo) and recomputed into it otherwise. Before
// the first setupHeads the round stamp is 0 and nothing hits.
func (l *lane) geom(from, target int) (float64, float64) {
	e := l.e
	m := &e.geomMemo[from]
	if m.target == int32(target) && m.round == e.geomRound && m.round != 0 {
		return m.d, m.p
	}
	d := e.dist(from, target)
	x := d / e.cfg.LinkRef
	*m = geomMemo{round: e.geomRound, target: int32(target), d: d, p: e.cfg.LinkPMax * math.Exp(-x*x)}
	return m.d, m.p
}

// linkP returns the link success probability from node `from` to
// `target` given the base channel probability pBase (from geom),
// including the persistent per-link shadowing factor when enabled and
// the contention penalty for the round's other in-flight transmissions.
func (l *lane) linkP(from, target int, pBase float64) float64 {
	e := l.e
	p := pBase
	if e.shadow != nil {
		p *= e.shadowFactor(from, target)
		if p > 0.999 {
			p = 0.999
		}
	}
	if e.cfg.ContentionGamma > 0 && l.inFlight > 1 {
		// The resolving transmission itself is one of inFlight; only the
		// others interfere.
		p *= math.Exp(-e.cfg.ContentionGamma * float64(l.inFlight-1))
	}
	return p
}

// begin resets the lane for a round: an empty event queue at
// roundStart, the alive nodes as generation sources and their pre-drawn
// generation schedule.
func (l *lane) begin(roundStart, roundEnd float64) {
	e := l.e
	l.hold = e.proto.RelayMode() == cluster.HoldAndBurst
	l.now = roundStart
	l.inFlight = 0
	l.bsPending = false
	l.nextPkt = e.nextPkt
	l.events.Reset()
	l.nodes = l.nodes[:0]
	for id := range e.net.Nodes {
		if e.alive(id) {
			l.nodes = append(l.nodes, int32(id))
		}
	}
	l.buildGen(roundStart, roundEnd)
}

// buildGen pre-draws every node's Poisson generation chain for the
// round into the flat schedule and sorts it by (t, node). Drawing the
// whole chain at once replaces one queue push+pop per generation event
// with an index increment; each per-node stream sees exactly the draws,
// in exactly the order, that the event-driven schedule performed (the
// old loop drew a node's next gap while processing the previous
// generation, including the final draw that lands past roundEnd, and
// kept drawing for nodes that died mid-round). The (t, node) sort order
// is the same total order the per-node cursor heap produced, so the
// processing sequence is unchanged.
func (l *lane) buildGen(roundStart, roundEnd float64) {
	l.genSched = l.genSched[:0]
	l.genIdx = 0
	mean := l.e.cfg.MeanInterArrival
	gens := l.e.nodeGen
	for _, id := range l.nodes {
		t := roundStart + gens[id].ExpFloat64()*mean
		for t < roundEnd {
			l.genSched = append(l.genSched, genPoint{t: t, node: id})
			t += gens[id].ExpFloat64() * mean
		}
	}
	l.bucketSortGen(roundStart, roundEnd)
}

// drain runs the lane's event loop to completion: generation cursors
// and radio/service events merge in time order (generation first on
// exact ties, matching the push order the unbatched engine gave a
// round's pre-scheduled generations), generation stops at roundEnd by
// construction, and in-flight transmissions and queue service run to
// completion (the queues drain in bounded time once generation ceases).
func (l *lane) drain(roundEnd float64) {
	for {
		genOK := l.genIdx < len(l.genSched)
		evT, evOK := l.events.PeekT()
		if genOK {
			g := l.genSched[l.genIdx]
			if !evOK || g.t <= evT {
				l.now = g.t
				l.genIdx++
				l.handleGenerate(int(g.node))
				continue
			}
		} else if !evOK {
			break
		}
		ev := l.events.Pop()
		l.now = ev.t
		switch ev.kind {
		case evArrive:
			l.handleArrive(ev)
		case evRetry:
			l.handleRetry(ev)
		case evService:
			l.handleService(ev)
		}
	}
	if l.now < roundEnd {
		l.now = roundEnd
	}
}

// handleGenerate creates a packet at the node and launches it. The
// node's next generation is already on the schedule (buildGen drew the
// whole chain), so a dead node just skips the packet.
func (l *lane) handleGenerate(id int) {
	e := l.e
	if !e.alive(id) {
		return
	}
	pkt := packet.Packet{ID: l.nextPkt, Source: id, Bits: e.cfg.Bits, Born: l.now}
	l.nextPkt++
	e.round.Generated++
	l.trace(TraceEvent{Kind: TraceGenerate, Packet: pkt.ID, Node: id})

	if e.isHead[id] {
		// A head's own sensing data goes straight into its queue —
		// no radio hop.
		if e.queues[id].Push(pkt) {
			l.scheduleService(id)
		} else {
			l.drop(metrics.DropQueue, pkt, id)
		}
		return
	}
	l.transmit(pkt, id, 0)
}

// transmit starts one radio attempt of pkt from node `from` toward the
// chosen target, paying the transmit energy now and resolving the
// outcome after the serialization delay.
func (l *lane) transmit(pkt packet.Packet, from, attempt int) {
	e := l.e
	target := e.proto.NextHop(from)
	d, pBase := l.geom(from, target)
	l.drawTx(from, e.calc.Tx(pkt.Bits, d), pkt.ID, true)
	l.inFlight++
	l.trace(TraceEvent{Kind: TraceSend, Packet: pkt.ID, Node: from, Target: target, Attempt: attempt})
	ev := l.pushAt(e.cfg.TxDelay(pkt.Bits), evArrive)
	ev.node, ev.target, ev.attempt, ev.pkt, ev.pBase = from, target, attempt, pkt, pBase
}

// handleArrive resolves a transmission attempt at its target. The base
// channel probability rides on the event from transmit: drain runs a
// round's events to completion and nodes move only between rounds, so
// the geometry cannot have changed while the arrival was pending.
func (l *lane) handleArrive(ev *event) {
	e := l.e
	from, target := ev.node, ev.target
	linkOK := e.link.Float64() < l.linkP(from, target, ev.pBase)
	if l.inFlight > 0 {
		l.inFlight--
	}

	success := false
	reason := metrics.DropLink
	if linkOK {
		switch {
		case target == network.BSID:
			// The BS is mains-powered but its receive pipeline is
			// finite: acceptance goes through a bounded queue, and
			// delivery completes at BS service time (the "burden of the
			// base station" the paper's −l penalty exists to limit).
			pkt := ev.pkt
			pkt.Hops++
			if e.bsQueue.Push(pkt) {
				success = true
				l.scheduleBSService()
			} else {
				reason = metrics.DropQueue
			}
		case e.alive(target) && e.queues[target] != nil:
			// Receiving costs energy whether or not the queue has room.
			l.drawRx(target, e.calc.Rx(ev.pkt.Bits), ev.pkt.ID, true)
			pkt := ev.pkt
			pkt.Hops++
			if e.queues[target].Push(pkt) {
				success = true
				l.scheduleService(target)
			} else {
				reason = metrics.DropQueue
			}
		default:
			// Dead target (or a node that is no longer a head): the
			// transmission goes unanswered.
			reason = metrics.DropDead
		}
	}
	e.proto.OnOutcome(from, target, success)
	if success {
		l.trace(TraceEvent{Kind: TraceAccept, Packet: ev.pkt.ID, Node: from, Target: target, Attempt: ev.attempt})
		// First radio hop accepted: record access latency (the routing-
		// controlled part of delay; see metrics.Result.Access).
		if ev.pkt.Hops == 0 {
			e.access.Observe(l.now - ev.pkt.Born)
		}
		return
	}
	l.trace(TraceEvent{Kind: TraceReject, Packet: ev.pkt.ID, Node: from, Target: target, Attempt: ev.attempt, Reason: reason.String()})
	if ev.attempt < e.cfg.MaxRetries && e.alive(from) {
		re := l.pushAt(e.cfg.RetryBackoff, evRetry)
		re.node, re.attempt, re.pkt = from, ev.attempt+1, ev.pkt
		return
	}
	l.drop(reason, ev.pkt, from)
}

// handleRetry re-launches a failed packet; the protocol may pick a
// different target this time (QLEC's reroute).
func (l *lane) handleRetry(ev *event) {
	if !l.e.alive(ev.node) {
		l.drop(metrics.DropDead, ev.pkt, ev.node)
		return
	}
	l.transmit(ev.pkt, ev.node, ev.attempt)
}

// scheduleService starts the head's fusion pipeline unless an evService
// event is already pending. The explicit pending flag (not a busy-until
// timestamp) makes an arrival at exactly the pending completion time a
// no-op; a `busyUntil > now` guard passed on that tie and started a
// second concurrent service chain (fixed ServiceTime/TxDelay/
// RetryBackoff deltas make exact ties reachable).
func (l *lane) scheduleService(head int) {
	e := l.e
	if e.servicePending[head] || e.queues[head].Len() == 0 {
		return // chain already running, or nothing to serve
	}
	e.servicePending[head] = true
	l.pushAt(e.cfg.ServiceTime, evService).node = head
}

// scheduleBSService starts the base station's receive pipeline if idle;
// same pending-flag discipline as scheduleService.
func (l *lane) scheduleBSService() {
	if l.bsPending || l.e.bsQueue.Len() == 0 {
		return
	}
	l.bsPending = true
	l.pushAt(l.e.cfg.BSServiceTime, evService).node = network.BSID
}

// handleService fuses the packet at the head's queue front, or completes
// BS-side processing when node is the base station.
func (l *lane) handleService(ev *event) {
	e := l.e
	if ev.node == network.BSID {
		l.bsPending = false
		if pkt, ok := e.bsQueue.Pop(); ok {
			l.deliver(pkt)
		}
		if e.bsQueue.Len() > 0 {
			l.bsPending = true
			l.pushAt(e.cfg.BSServiceTime, evService).node = network.BSID
		}
		return
	}
	head := ev.node
	e.servicePending[head] = false
	q := e.queues[head]
	if q == nil {
		return
	}
	pkt, ok := q.Pop()
	if ok {
		if e.alive(head) {
			l.drawFusion(head, e.calc.Aggregate(pkt.Bits), pkt.ID, true)
			l.trace(TraceEvent{Kind: TraceService, Packet: pkt.ID, Node: head})
			l.afterService(head, pkt)
		} else {
			l.drop(metrics.DropDead, pkt, head)
		}
	}
	if q.Len() > 0 {
		e.servicePending[head] = true
		l.pushAt(e.cfg.ServiceTime, evService).node = head
	}
}

// afterService routes a fused packet according to the protocol's relay
// mode: buffer it for the end-of-round burst, or forward it now through
// the head hierarchy (the FCM baseline).
func (l *lane) afterService(head int, pkt packet.Packet) {
	e := l.e
	if l.hold {
		e.fused[head].bits += pkt.Bits
		e.fused[head].pkts = append(e.fused[head].pkts, pkt)
		return
	}
	// ForwardPerPacket: compress at the first head only, then relay —
	// unless the fusion draw just took the head to the death line.
	if !e.alive(head) {
		l.drop(metrics.DropDead, pkt, head)
		return
	}
	bits := pkt.Bits
	if pkt.Hops <= 1 {
		bits = compressedBits(bits, e.cfg.Compression)
	}
	fwd := pkt
	fwd.Bits = bits
	l.transmit(fwd, head, 0)
}

// drop abandons a packet, recording the reason in metrics and the
// trace.
func (l *lane) drop(reason metrics.DropReason, pkt packet.Packet, node int) {
	l.e.round.Dropped[reason]++
	l.trace(TraceEvent{Kind: TraceDrop, Packet: pkt.ID, Node: node, Reason: reason.String()})
}

// deliver records a packet's arrival at the base station.
func (l *lane) deliver(pkt packet.Packet) {
	l.trace(TraceEvent{Kind: TraceDeliver, Packet: pkt.ID, Node: pkt.Source})
	e := l.e
	e.round.Delivered++
	lat := l.now - pkt.Born
	e.latency.Observe(lat)
	e.roundLat.Observe(lat)
	e.hops.Observe(float64(pkt.Hops))
}

// endOfRound flushes remaining queue contents and performs the
// HoldAndBurst delivery toward the BS, walking every head. Packets the
// BS accepted but had not finished processing when the round ended were
// received, so their processing spills past the boundary.
func (l *lane) endOfRound(heads []int) {
	for {
		pkt, ok := l.e.bsQueue.Pop()
		if !ok {
			break
		}
		l.deliver(pkt)
	}
	for _, h := range heads {
		l.finishHead(h)
	}
}

// finishHead drains one head's remaining queue through the final
// data-fusion pass and performs its relay-mode delivery: the
// HoldAndBurst aggregate toward the BS, or the per-packet relay chain.
// A dead head strands its queue.
func (l *lane) finishHead(h int) {
	e := l.e
	q := e.queues[h]
	if q == nil {
		return
	}
	for {
		pkt, ok := q.Pop()
		if !ok {
			break
		}
		if !e.alive(h) {
			l.drop(metrics.DropDead, pkt, h)
			continue
		}
		l.drawFusion(h, e.calc.Aggregate(pkt.Bits), pkt.ID, true)
		if l.hold {
			e.fused[h].bits += pkt.Bits
			e.fused[h].pkts = append(e.fused[h].pkts, pkt)
		} else {
			l.forwardChainInstant(h, pkt)
		}
	}
	if l.hold {
		l.burst(h)
	}
}

// burst sends a head's aggregate to the BS with retries (Algorithm 1
// lines 13-14: "transmit processed data directly to BS").
func (l *lane) burst(head int) {
	e := l.e
	buf := &e.fused[head]
	if len(buf.pkts) == 0 {
		return
	}
	aggBits := compressedBits(buf.bits, e.cfg.Compression)
	d, pBase := l.geom(head, network.BSID)
	delivered := false
	for attempt := 0; attempt <= e.cfg.BatchRetries; attempt++ {
		if !e.alive(head) {
			break
		}
		l.drawTx(head, e.calc.Tx(aggBits, d), 0, false)
		ok := e.link.Float64() < l.linkP(head, network.BSID, pBase)
		e.proto.OnOutcome(head, network.BSID, ok)
		if ok {
			delivered = true
			break
		}
	}
	arrival := l.now + e.cfg.TxDelay(aggBits)
	for _, pkt := range buf.pkts {
		if delivered {
			pkt.Hops++
			saved := l.now
			l.now = arrival
			l.deliver(pkt)
			l.now = saved
		} else {
			l.drop(metrics.DropBatch, pkt, head)
		}
	}
	buf.bits = 0
	buf.pkts = buf.pkts[:0]
}

// forwardChainInstant pushes a leftover fused packet through the
// protocol's relay chain at round end, paying per-hop energy and taking
// per-hop loss draws, without queueing (generation has stopped; queues
// are drained).
func (l *lane) forwardChainInstant(head int, pkt packet.Packet) {
	e := l.e
	bits := pkt.Bits
	if pkt.Hops <= 1 {
		bits = compressedBits(bits, e.cfg.Compression)
	}
	holder := head
	for hop := 0; hop < 32; hop++ {
		if !e.alive(holder) {
			l.drop(metrics.DropDead, pkt, holder)
			return
		}
		target := e.proto.NextHop(holder)
		d, pBase := l.geom(holder, target)
		ok := false
		for attempt := 0; attempt <= e.cfg.MaxRetries && !ok; attempt++ {
			l.drawTx(holder, e.calc.Tx(bits, d), pkt.ID, true)
			ok = e.link.Float64() < l.linkP(holder, target, pBase)
			e.proto.OnOutcome(holder, target, ok)
		}
		if !ok {
			l.drop(metrics.DropLink, pkt, holder)
			return
		}
		pkt.Hops++
		if target == network.BSID {
			l.deliver(pkt)
			return
		}
		l.drawRx(target, e.calc.Rx(bits), pkt.ID, true)
		holder = target
	}
	// Routing loop guard: a protocol that cycles loses the packet.
	l.drop(metrics.DropLink, pkt, holder)
}
