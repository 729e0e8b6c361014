package sim

import (
	"context"
	"fmt"
	"math"

	"qlec/internal/cluster"
	"qlec/internal/energy"
	"qlec/internal/geom"
	"qlec/internal/metrics"
	"qlec/internal/mobility"
	"qlec/internal/network"
	"qlec/internal/packet"
	"qlec/internal/rng"
	"qlec/internal/stats"
)

// Engine runs one protocol over one network for a number of rounds.
//
// The engine owns the protocol-independent state of a run — batteries,
// head queues, RNG streams, accumulators — while the round's event loop
// lives in the lane (lane.go), which replays the historical single-heap
// schedule byte for byte.
type Engine struct {
	cfg   Config
	net   *network.Network
	proto cluster.Protocol
	model energy.Model
	calc  energy.Calc // model with the crossover distance precomputed

	nodeGen []*rng.Stream // per-node traffic timing streams
	link    *rng.Stream   // link success draws, in event order

	// main is the event loop: it owns every node and writes straight
	// into the engine's accumulators.
	main lane

	// Per-round head state, indexed by node id. servicePending[h]
	// reports that an evService event for head h is sitting in the queue;
	// the fusion pipeline is re-armed only when it is clear, so an
	// arrival landing at exactly the pending completion time cannot
	// start a second concurrent service chain.
	isHead         []bool
	queues         []*packet.Queue
	servicePending []bool
	fused          []fusedBuf

	// queuePool recycles head queues across rounds; without it every
	// round allocates K fresh queues plus their ring storage. fusedPool
	// does the same for the fused-packet buffers, which would otherwise
	// stay with every node that has ever been a head.
	queuePool []*packet.Queue
	fusedPool [][]packet.Packet

	// Base-station receive pipeline for in-round packets (direct-to-BS
	// traffic, FCM terminal hops). Finite, per Config.BSQueueCapacity.
	bsQueue *packet.Queue

	// mover advances node positions between rounds when mobility is
	// configured.
	mover *mobility.RandomWaypoint

	// shadow caches per-link log-normal quality factors in a dense
	// slice indexed from*(N+1)+(to+1) (NaN = not drawn yet; lazily
	// filled so the draw stream is only consumed for links actually
	// used). shadowSeed derives the factors deterministically from the
	// (from, target) pair so runs stay reproducible regardless of
	// lookup order.
	shadow     []float64
	shadowSeed *rng.Stream

	nextPkt packet.ID
	now     float64 // engine clock outside the event loop (round start)

	// tracer, when installed, observes every packet transition;
	// curRound stamps trace events. observer, when installed, receives
	// one RoundSnapshot per completed round (see step.go). auditor,
	// when installed, receives every classified battery draw plus round
	// boundaries (see audit.go).
	tracer   Tracer
	observer Observer
	auditor  Auditor
	curRound int

	// Stepper state (see step.go): the planned round budget, the next
	// round to execute, and whether the run has ended.
	targetRounds int
	nextRound    int
	finished     bool

	// posBuf is the reusable position scratch buffer for moveNodes.
	posBuf []geom.Vec3

	// Per-sender link-geometry memo. The hop distance and the base
	// channel probability LinkPMax·exp(−(d/LinkRef)²) are pure functions
	// of positions, which only change between rounds, so each node keeps
	// the geometry of the last link it used: a sender mostly transmits
	// to one head per round, and a miss just recomputes and overwrites.
	// An entry is valid while its round equals geomRound, which
	// setupHeads bumps; round 0 never counts, so the zeroed entries of a
	// new engine cannot hit. Memoized and fresh values are bit-identical
	// — the same expressions on the same inputs — so results are
	// unchanged (DESIGN.md §8).
	geomMemo  []geomMemo
	geomRound uint32

	// breakdown tallies consumption by radio activity.
	breakdown metrics.EnergyBreakdown

	// Accumulators.
	res      *metrics.Result
	round    metrics.RoundStats
	latency  stats.Accumulator
	access   stats.Accumulator
	hops     stats.Accumulator
	roundLat stats.Accumulator
}

// geomMemo is one sender's most recently used link: its target, the
// hop distance and the base channel probability, stamped with the round
// that computed them.
type geomMemo struct {
	round  uint32
	target int32
	d, p   float64
}

// fusedBuf accumulates a head's serviced packets awaiting the
// end-of-round burst (HoldAndBurst protocols).
type fusedBuf struct {
	bits int
	pkts []packet.Packet
}

// NewEngine builds an engine. The protocol must already be bound to the
// same network.
func NewEngine(w *network.Network, proto cluster.Protocol, model energy.Model, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if proto == nil {
		return nil, fmt.Errorf("sim: nil protocol")
	}
	e := &Engine{
		cfg:            cfg,
		net:            w,
		proto:          proto,
		model:          model,
		calc:           model.Calc(),
		link:           rng.NewNamed(cfg.Seed, "sim/link"),
		isHead:         make([]bool, w.N()),
		queues:         make([]*packet.Queue, w.N()),
		servicePending: make([]bool, w.N()),
		fused:          make([]fusedBuf, w.N()),
		geomMemo:       make([]geomMemo, w.N()),
	}
	e.main.e = e
	traffic := rng.NewNamed(cfg.Seed, "sim/traffic")
	e.nodeGen = make([]*rng.Stream, w.N())
	for i := range e.nodeGen {
		e.nodeGen[i] = traffic.Split(uint64(i))
	}
	if cfg.ShadowSigma > 0 {
		e.shadow = make([]float64, w.N()*(w.N()+1))
		for i := range e.shadow {
			e.shadow[i] = math.NaN()
		}
		e.shadowSeed = rng.NewNamed(cfg.Seed, "sim/shadow")
	}
	if cfg.MobilitySpeedMax > 0 {
		m, err := mobility.NewRandomWaypoint(w.Box, w.N(),
			cfg.MobilitySpeedMin, cfg.MobilitySpeedMax, cfg.MobilityPause,
			rng.NewNamed(cfg.Seed, "sim/mobility"))
		if err != nil {
			return nil, err
		}
		e.mover = m
	}
	return e, nil
}

// shadowFactor returns the link's persistent log-normal quality factor,
// drawing it on first use from a stream keyed by the (from, target)
// pair so the value is independent of lookup order. target may be BSID
// (−1); the dense index maps it to column 0.
func (e *Engine) shadowFactor(from, target int) float64 {
	i := from*(e.net.N()+1) + target + 1
	if f := e.shadow[i]; !math.IsNaN(f) {
		return f
	}
	z := e.shadowSeed.Split(uint64(i)).NormFloat64()
	sigma := e.cfg.ShadowSigma
	f := math.Exp(sigma*z - sigma*sigma/2) // mean-1 log-normal
	e.shadow[i] = f
	return f
}

// drawControl bills a control-plane battery draw (head advertisements,
// member receptions). Control traffic happens at the CH-selection
// barrier, outside the round's event loop.
func (e *Engine) drawControl(id int, amount energy.Joules) {
	d := e.net.Nodes[id].Battery.Draw(amount)
	e.breakdown.Control += d
	if e.auditor != nil {
		e.auditEnergy(CauseControl, id, d, 0, false)
	}
}

func (e *Engine) alive(id int) bool {
	return e.net.Nodes[id].Alive(e.cfg.DeathLine)
}

func (e *Engine) dist(from, to int) float64 {
	if to == network.BSID {
		return e.net.DistToBS(from)
	}
	return e.net.Nodes[from].Pos.Dist(e.net.Nodes[to].Pos)
}

// Run executes up to rounds rounds and returns the measurements. It is
// a thin loop over the stepper API (Start/Step/Result in step.go).
// Cancelling ctx stops the run at the next round boundary and returns
// the partial result accumulated so far alongside ctx's error, so
// callers can report progress made before the interruption.
func (e *Engine) Run(ctx context.Context, rounds int) (*metrics.Result, error) {
	if err := e.Start(rounds); err != nil {
		return nil, err
	}
	for {
		snap, err := e.Step(ctx)
		if err != nil {
			return e.Result(), err
		}
		if snap.Done {
			return e.Result(), nil
		}
	}
}

// moveNodes advances every node one round of random-waypoint motion.
// Positions mutate in place on the shared network, so the next round's
// head selection and routing see the drifted topology. The scratch
// buffer persists across rounds — mobility runs for thousands of rounds
// in lifespan mode, so a per-round allocation here is measurable.
func (e *Engine) moveNodes() {
	if cap(e.posBuf) < e.net.N() {
		e.posBuf = make([]geom.Vec3, e.net.N())
	}
	pos := e.posBuf[:e.net.N()]
	for i, n := range e.net.Nodes {
		pos[i] = n.Pos
	}
	e.mover.Advance(pos, e.cfg.RoundDuration)
	for i, n := range e.net.Nodes {
		n.Pos = pos[i]
	}
	if g, ok := e.proto.(cluster.GeometryInvalidator); ok {
		g.InvalidateGeometry()
	}
}

// runRound executes one full round: head selection, event loop, drain,
// end-of-round delivery.
func (e *Engine) runRound(r int) {
	roundStart := float64(r) * e.cfg.RoundDuration
	roundEnd := roundStart + e.cfg.RoundDuration
	e.now = roundStart
	e.curRound = r
	energyBefore := e.net.TotalConsumed()
	e.round = metrics.RoundStats{Round: r}
	e.roundLat = stats.Accumulator{}

	heads := e.proto.StartRound(r)
	e.round.Heads = len(heads)
	if e.auditor != nil {
		e.auditor.AuditBeginRound(r, heads)
	}
	e.setupHeads(heads)
	if !e.cfg.DisableControlTraffic {
		e.chargeControl(heads)
	}

	e.runEvents(heads, roundStart, roundEnd)

	e.proto.EndRound(r)

	e.round.Energy = e.net.TotalConsumed() - energyBefore
	e.round.AliveAtEnd = e.net.AliveCount(e.cfg.DeathLine)
	e.round.MeanLatency = e.roundLat.Mean()
	e.res.Generated += e.round.Generated
	e.res.Delivered += e.round.Delivered
	for i, d := range e.round.Dropped {
		e.res.Dropped[i] += d
	}
	e.res.TotalEnergy += e.round.Energy
	if e.auditor != nil {
		e.auditor.AuditEndRound(r, e.round.Energy, e.res.TotalEnergy)
	}
}

// runEvents executes the round's event loop: every alive node on one
// event queue, the link stream drawn in event order — the historical
// schedule, byte for byte.
func (e *Engine) runEvents(heads []int, roundStart, roundEnd float64) {
	l := &e.main
	l.begin(roundStart, roundEnd)
	l.drain(roundEnd)
	l.endOfRound(heads)
	e.nextPkt = l.nextPkt
}

// setupHeads resets per-round head state, recycling last round's queues
// and fused buffers through the pools instead of allocating fresh ones.
func (e *Engine) setupHeads(heads []int) {
	for i := range e.isHead {
		e.isHead[i] = false
		e.servicePending[i] = false
		if q := e.queues[i]; q != nil {
			q.Reset()
			e.queuePool = append(e.queuePool, q)
			e.queues[i] = nil
		}
		e.fused[i].bits = 0
		if p := e.fused[i].pkts; p != nil {
			e.fusedPool = append(e.fusedPool, p[:0])
			e.fused[i].pkts = nil
		}
	}
	for _, h := range heads {
		e.isHead[h] = true
		if n := len(e.queuePool); n > 0 {
			e.queues[h] = e.queuePool[n-1]
			e.queuePool = e.queuePool[:n-1]
		} else {
			e.queues[h] = packet.NewQueue(e.cfg.QueueCapacity)
		}
		if n := len(e.fusedPool); n > 0 {
			e.fused[h].pkts = e.fusedPool[n-1]
			e.fusedPool = e.fusedPool[:n-1]
		}
	}
	if e.bsQueue == nil {
		e.bsQueue = packet.NewQueue(e.cfg.BSQueueCapacity)
	} else {
		e.bsQueue.Reset()
	}
	// Positions may have moved since the last round: retire every memo
	// entry. On wrap-around the entries are cleared so a stamp from 2³²
	// rounds ago cannot match again.
	if e.geomRound++; e.geomRound == 0 {
		clear(e.geomMemo)
		e.geomRound = 1
	}
}

// chargeControl bills the per-round control traffic: every head
// broadcasts an advertisement over the coverage radius; every other
// alive node receives one.
func (e *Engine) chargeControl(heads []int) {
	if len(heads) == 0 {
		return
	}
	side := e.net.Box.Size().X
	dc := geom.CoverageRadius(side, len(heads))
	for _, h := range heads {
		e.drawControl(h, e.model.Tx(e.cfg.HelloBits, dc))
	}
	rx := e.model.Rx(e.cfg.HelloBits)
	for id := range e.net.Nodes {
		if !e.isHead[id] && e.alive(id) {
			e.drawControl(id, rx)
		}
	}
}

// compressedBits applies the Table 2 fusion ratio, keeping at least one
// bit so packets never become free to transmit.
func compressedBits(bits int, ratio float64) int {
	out := int(math.Ceil(float64(bits) * ratio))
	if out < 1 {
		out = 1
	}
	return out
}
