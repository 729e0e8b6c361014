package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"qlec/internal/experiment"
	"qlec/internal/fleet"
	"qlec/internal/obs"
)

// FleetOptions configures a daemon's membership in a qlecd fleet
// (DESIGN.md §14). The zero value runs standalone — a fleet of one: the
// same cell pool runs every sweep and batch, and with no other member
// there is nobody to steal from, proxy to or replicate to.
type FleetOptions struct {
	// Self is this daemon's advertised base URL (http://host:port).
	// Required when Peers or Join is set; without it the daemon refuses
	// joins and stays a fleet of one.
	Self string
	// Peers lists peer base URLs known at startup.
	Peers []string
	// Join is an existing peer to join through: the daemon announces
	// itself there and adopts the returned roster.
	Join string
	// CellWorkers sizes the cell-executor pool; default GOMAXPROCS.
	CellWorkers int
	// LeaseTTL is how long a granted cell may run between renewals
	// before it returns to the pool; default 15s.
	LeaseTTL time.Duration
	// StealInterval is the idle executor's steal cadence; default 200ms.
	// Cells offered locally wake an idle executor at once.
	StealInterval time.Duration
	// ProbeInterval is the peer health-probe cadence; default 1s.
	ProbeInterval time.Duration
}

// fleetRuntime is the per-daemon fleet engine: the consistent-hash
// membership, the coordinator-side cell pool, the executor pool that
// drains it (and steals from peers when it runs dry), and the futures
// that let sweep jobs and batches wait for cells wherever they run.
// A standalone daemon runs the same engine over a membership of one.
type fleetRuntime struct {
	s       *Server
	self    string
	members *fleet.Membership
	table   *fleet.Table
	peers   *fleet.Client

	ttl         time.Duration
	stealEvery  time.Duration
	cellWorkers int
	joinTarget  string

	mu      sync.Mutex
	futures map[string]*cellFuture
	// wake nudges idle executors when a cell is offered locally, so it
	// starts at once instead of at the next steal tick. One slot per
	// executor: a burst of offers wakes them all, and a full buffer
	// means every executor already has a wake-up pending.
	wake chan struct{}

	fm       *obs.FleetMetrics
	stealIdx uint64 // round-robin cursor over ready peers; guarded by mu

	// spans holds every span this daemon recorded — jobs and their
	// rounds, cells, fleet calls — for the Options.TraceHistory newest
	// traces; peers collect them via GET /v1/fleet/trace/{traceID}.
	spans *obs.TraceStore

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// cellFuture is one scheduled cell's pending result. done closes after
// env/err are set; refs counts the jobs/batches waiting, so abandoned
// cells (every waiter cancelled) can be withdrawn from the pool.
type cellFuture struct {
	hash string
	done chan struct{}
	env  *ResultEnvelope
	err  error
	refs int // guarded by runtime mu
}

func newFleetRuntime(s *Server, opt FleetOptions) (*fleetRuntime, error) {
	if opt.Self == "" && (len(opt.Peers) > 0 || opt.Join != "") {
		return nil, errors.New("service: fleet peers configured without a self URL (set -self)")
	}
	if opt.CellWorkers <= 0 {
		opt.CellWorkers = runtime.GOMAXPROCS(0)
	}
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = 15 * time.Second
	}
	if opt.StealInterval <= 0 {
		opt.StealInterval = 200 * time.Millisecond
	}
	if opt.ProbeInterval <= 0 {
		opt.ProbeInterval = time.Second
	}
	self := opt.Self
	if self == "" {
		self = "local"
	}
	r := &fleetRuntime{
		s:           s,
		self:        self,
		table:       fleet.NewTable(),
		peers:       fleet.NewClient(),
		ttl:         opt.LeaseTTL,
		stealEvery:  opt.StealInterval,
		cellWorkers: opt.CellWorkers,
		joinTarget:  opt.Join,
		futures:     make(map[string]*cellFuture),
		wake:        make(chan struct{}, opt.CellWorkers),
		fm:          obs.NewFleetMetrics(s.reg),
		spans:       obs.NewTraceStore(self, s.opt.TraceHistory),
		stop:        make(chan struct{}),
	}
	r.members = fleet.NewMembership(self, r.peers.Ready, opt.ProbeInterval)
	for _, p := range opt.Peers {
		r.members.Add(p)
	}
	return r, nil
}

// start launches the executor pool, the lease-expiry sweeper, the
// membership prober and (with -join) the join announcement.
func (r *fleetRuntime) start() {
	for i := 0; i < r.cellWorkers; i++ {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.executorLoop()
		}()
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.expiryLoop()
	}()
	r.members.Start()
	if r.joinTarget != "" {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.join()
		}()
	}
}

// stopWork halts executors, the sweeper and the prober. The server
// calls it after its own workers and batch goroutines have drained —
// they are the executors' consumers, so this order can never strand a
// waiter.
func (r *fleetRuntime) stopWork() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.members.Stop()
	r.wg.Wait()
}

// join announces self through the configured join target, adopts its
// roster, and announces self to every adopted peer so the whole fleet
// converges on one membership without a central registry. Retries for a
// while — daemons in one fleet typically boot together.
func (r *fleetRuntime) join() {
	for attempt := 0; attempt < 30; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		st, err := r.peers.Join(ctx, r.joinTarget, r.self)
		cancel()
		if err == nil {
			r.members.Add(r.joinTarget)
			r.members.MarkReady(r.joinTarget, true, "")
			for _, p := range st.Peers {
				if p.ID == r.self || p.ID == r.joinTarget {
					continue
				}
				r.members.Add(p.ID)
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				if _, err := r.peers.Join(ctx, p.ID, r.self); err != nil {
					r.s.log.Warn("fleet: transitive join", "peer", p.ID, "err", err)
				}
				cancel()
			}
			r.s.log.Info("fleet: joined", "via", r.joinTarget, "peers", len(st.Peers))
			return
		}
		r.s.log.Warn("fleet: join attempt failed", "via", r.joinTarget, "err", err)
		select {
		case <-r.stop:
			return
		case <-r.s.hardCtx.Done():
			return
		case <-time.After(time.Second):
		}
	}
	r.s.log.Error("fleet: giving up joining", "via", r.joinTarget)
}

// schedule registers interest in a cell: an existing future gains a
// waiter, otherwise the cell enters the pool and a future is created.
// trace is the scheduling job's traceparent, carried with the cell so
// its executor joins the same distributed trace ("" for untraced work).
func (r *fleetRuntime) schedule(req Request, hash, trace string) (*cellFuture, error) {
	r.mu.Lock()
	if f := r.futures[hash]; f != nil {
		f.refs++
		r.mu.Unlock()
		return f, nil
	}
	f := &cellFuture{hash: hash, done: make(chan struct{}), refs: 1}
	r.futures[hash] = f
	r.mu.Unlock()
	spec, err := json.Marshal(req)
	if err != nil {
		r.mu.Lock()
		delete(r.futures, hash)
		r.mu.Unlock()
		return nil, fmt.Errorf("service: encode cell spec: %w", err)
	}
	if r.table.Offer(fleet.Cell{Hash: hash, Spec: spec, Trace: trace}) {
		select {
		case r.wake <- struct{}{}:
		default:
		}
		if sc, ok := obs.ParseTraceParent(trace); ok {
			r.spans.Instant(sc, "cell pooled "+shortHash(hash), "pool", map[string]any{"hash": hash})
		}
	}
	return f, nil
}

// shortHash abbreviates a content hash for span names.
func shortHash(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}

// release drops one waiter from a future; when the last waiter leaves
// before completion, the cell is withdrawn from the pool (a leased cell
// stays out — its result is still worth caching).
func (r *fleetRuntime) release(f *cellFuture) {
	r.mu.Lock()
	f.refs--
	gone := f.refs <= 0 && r.futures[f.hash] == f
	if gone {
		delete(r.futures, f.hash)
	}
	r.mu.Unlock()
	if gone {
		r.table.Withdraw(f.hash)
	}
}

// complete resolves a cell wherever it ran: the result is cached
// (content-addressed, persisted), the pool entry removed, and every
// waiter woken. errMsg reports execution failure; duplicate and
// unsolicited completions are no-ops beyond the (idempotent) cache put.
func (r *fleetRuntime) complete(hash string, env *ResultEnvelope, errMsg string) {
	if r.table.Complete(hash) {
		// First completion of a live cell under this coordinator: this
		// counter summed across the peers' /metrics is the fleet's exact
		// total.
		r.fm.CellsCompleted.Inc()
	}
	if env != nil && errMsg == "" {
		env.Hash = hash
		if err := r.s.cache.put(hash, env, true); err != nil {
			r.s.log.Error("fleet: cache cell result", "hash", hash, "err", err)
		}
	}
	r.mu.Lock()
	f := r.futures[hash]
	delete(r.futures, hash)
	r.mu.Unlock()
	if f == nil {
		return
	}
	f.env = env
	if errMsg != "" {
		f.err = errors.New(errMsg)
	}
	close(f.done)
}

// executorLoop is one cell executor: drain the local pool, then steal
// from ready peers, then idle until a local offer or the next steal
// tick.
func (r *fleetRuntime) executorLoop() {
	for {
		select {
		case <-r.stop:
			return
		case <-r.s.hardCtx.Done():
			return
		default:
		}
		if r.runOneCell() {
			continue
		}
		select {
		case <-r.stop:
			return
		case <-r.s.hardCtx.Done():
			return
		case <-r.wake:
		case <-time.After(r.stealEvery):
		}
	}
}

// runOneCell executes at most one cell (local first, stolen second) and
// reports whether it found work. Only a steal round that reached a
// ready peer and came back empty counts as starvation: a fleet of one
// has nobody to steal from, so idling there is not a scale signal.
func (r *fleetRuntime) runOneCell() bool {
	if leases := r.table.Acquire(r.self, 1, r.ttl, time.Now()); len(leases) > 0 {
		r.fm.CellsExecuted.With("local").Inc()
		r.fm.CellWait.Observe(leases[0].Waited.Seconds())
		r.executeLocal(leases[0])
		return true
	}
	if r.s.draining.Load() {
		return false
	}
	peer := r.nextStealTarget()
	if peer == "" {
		return false
	}
	grants, err := r.peers.Steal(r.s.hardCtx, peer, r.self, 1)
	if err != nil || len(grants) == 0 {
		r.fm.StealStarvation.Inc()
		return false
	}
	for _, g := range grants {
		r.fm.CellsStolenIn.Inc()
		r.fm.CellsExecuted.With("stolen").Inc()
		r.executeStolen(peer, g)
	}
	return true
}

// nextStealTarget round-robins over the ready peers.
func (r *fleetRuntime) nextStealTarget() string {
	ready := r.members.ReadyOthers()
	if len(ready) == 0 {
		return ""
	}
	r.mu.Lock()
	i := r.stealIdx % uint64(len(ready))
	r.stealIdx++
	r.mu.Unlock()
	return ready[i]
}

// cellSpan derives an executor-side span context from the cell's
// carried traceparent (zero context when the cell is untraced).
func cellSpan(c fleet.Cell) obs.SpanContext {
	if sc, ok := obs.ParseTraceParent(c.Trace); ok {
		return sc.Child()
	}
	return obs.SpanContext{}
}

// executeLocal runs one locally leased cell end to end, renewing the
// lease while it runs.
func (r *fleetRuntime) executeLocal(l fleet.Lease) {
	stopRenew := r.keepRenewed(func(now time.Time) bool {
		return r.table.Renew([]string{l.ID}, r.ttl, now) > 0
	})
	defer stopRenew()
	hash := l.Cell.Hash
	sc := cellSpan(l.Cell)
	ctx := obs.ContextWithSpan(r.s.hardCtx, sc)
	start := time.Now()
	env, err := r.resolveOrRun(ctx, l.Cell)
	state := "done"
	if err != nil {
		state = "failed"
	}
	r.spans.Span(sc, "cell "+shortHash(hash), "cell", start, time.Now(),
		map[string]any{"source": "local", "state": state})
	if err != nil {
		if r.s.hardCtx.Err() != nil {
			return // shutdown: leave the cell to expiry/restart, not failure
		}
		r.complete(hash, nil, err.Error())
		return
	}
	r.complete(hash, env, "")
	r.replicateToOwner(ctx, hash, env)
}

// executeStolen runs one cell leased from a peer and reports the result
// back. The thief also adopts the result into its own cache and pushes
// it to the ring owner, so the fleet converges on one copy per owner
// regardless of where the cell ran.
func (r *fleetRuntime) executeStolen(peer string, l fleet.Lease) {
	sc := cellSpan(l.Cell)
	spanCtx := obs.ContextWithSpan(r.s.hardCtx, sc)
	stopRenew := r.keepRenewed(func(now time.Time) bool {
		ctx, cancel := context.WithTimeout(spanCtx, r.ttl/2)
		defer cancel()
		n, err := r.peers.Renew(ctx, peer, fleet.RenewRequest{Worker: r.self, LeaseIDs: []string{l.ID}})
		if err == nil && n > 0 {
			r.spans.Instant(sc, "lease renew", "lease", map[string]any{"coordinator": peer})
			return true
		}
		return false
	})
	defer stopRenew()
	hash := l.Cell.Hash
	start := time.Now()
	env, err := r.resolveOrRun(spanCtx, l.Cell)
	state := "done"
	if err != nil {
		state = "failed"
	}
	r.spans.Span(sc, "cell "+shortHash(hash), "cell", start, time.Now(),
		map[string]any{"source": "stolen", "coordinator": peer, "state": state})
	if err != nil && r.s.hardCtx.Err() != nil {
		return // shutdown: the peer's lease expires and the cell re-pools
	}
	creq := fleet.CompleteRequest{Worker: r.self, LeaseID: l.ID, Hash: hash}
	if err != nil {
		creq.Error = err.Error()
	} else {
		raw, merr := json.Marshal(env)
		if merr != nil {
			creq.Error = fmt.Sprintf("encode result: %v", merr)
		} else {
			creq.Result = raw
		}
		// Adopt and replicate regardless of whether the report lands —
		// the result is correct and content-addressed either way.
		if cerr := r.s.cache.put(hash, env, true); cerr != nil {
			r.s.log.Error("fleet: cache stolen cell", "hash", hash, "err", cerr)
		}
		r.replicateToOwner(spanCtx, hash, env)
	}
	for attempt, backoff := 0, 250*time.Millisecond; ; attempt++ {
		if err := r.peers.Complete(spanCtx, peer, creq); err == nil {
			return
		} else if attempt >= 3 || r.s.hardCtx.Err() != nil {
			r.s.log.Warn("fleet: report stolen cell", "peer", peer, "hash", hash, "err", err)
			return // the peer's lease expires and the cell re-pools there
		}
		select {
		case <-time.After(backoff):
		case <-r.s.hardCtx.Done():
			return
		}
		backoff *= 2
	}
}

// resolveOrRun answers a cell from the local cache, the ring owner's
// cache, or by executing it. ctx carries the cell's span context so
// downstream peer calls (proxy fetch, replication) stay on-trace. An
// executed cell runs under kind="cell" profile labels on this daemon,
// the one that burns the cycles.
func (r *fleetRuntime) resolveOrRun(ctx context.Context, c fleet.Cell) (*ResultEnvelope, error) {
	if env, ok := r.s.cache.peek(c.Hash); ok {
		return env, nil
	}
	if env, ok := r.proxyFetch(ctx, c.Hash); ok {
		return env, nil
	}
	var req Request
	if err := json.Unmarshal(c.Spec, &req); err != nil {
		return nil, fmt.Errorf("decode cell spec: %w", err)
	}
	req = req.Normalize()
	if err := req.Validate(); err != nil {
		return nil, err
	}
	env, err := r.s.run(ctx, "cell", req, experiment.Hooks{})
	if err != nil {
		return nil, err
	}
	if env == nil {
		env = &ResultEnvelope{Kind: req.Kind}
	}
	env.Hash = c.Hash
	return env, nil
}

// keepRenewed renews a lease at ttl/3 cadence until the returned stop
// function runs; it stops early if a renewal reports the lease dead.
func (r *fleetRuntime) keepRenewed(renew func(now time.Time) bool) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(r.ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-r.s.hardCtx.Done():
				return
			case now := <-t.C:
				if !renew(now) {
					return
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// expiryLoop re-pools cells whose holder went quiet — the "peer died
// mid-cell" recovery path.
func (r *fleetRuntime) expiryLoop() {
	t := time.NewTicker(maxDuration(r.ttl/4, 50*time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-r.s.hardCtx.Done():
			return
		case now := <-t.C:
			if cells := r.table.ExpireDue(now); len(cells) > 0 {
				r.s.log.Warn("fleet: leases expired, cells re-pooled", "cells", len(cells))
			}
		}
	}
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// proxyFetch asks the hash's ring owner for a cached result; a hit is
// adopted into the local memory cache. Misses (including "we are the
// owner", which a fleet of one always is) report false.
func (r *fleetRuntime) proxyFetch(ctx context.Context, hash string) (*ResultEnvelope, bool) {
	owner := r.members.Owner(hash)
	if owner == "" || owner == r.self {
		return nil, false
	}
	callCtx, cancel := context.WithTimeout(ctx, 3*time.Second)
	defer cancel()
	start := time.Now()
	raw, err := r.peers.CacheGet(callCtx, owner, hash)
	if err != nil {
		if !errors.Is(err, fleet.ErrNotFound) {
			r.s.log.Warn("fleet: proxy cache lookup", "owner", owner, "hash", hash, "err", err)
		}
		return nil, false
	}
	if sc := obs.SpanFromContext(ctx); sc.Valid() {
		r.spans.Span(sc.Child(), "owner cache get "+shortHash(hash), "cache", start, time.Now(),
			map[string]any{"owner": owner})
	}
	var env ResultEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		r.s.log.Warn("fleet: proxy cache decode", "owner", owner, "hash", hash, "err", err)
		return nil, false
	}
	env.Hash = hash
	r.fm.ProxyHitsFetched.Inc()
	// Memory-only adoption: the owner holds the durable copy.
	_ = r.s.cache.put(hash, &env, false)
	return &env, true
}

// replicateToOwner pushes a result envelope to its ring owner so every
// future lookup fleet-wide resolves in one proxy hop. Best-effort: the
// local (persisted) copy is authoritative for this daemon either way.
func (r *fleetRuntime) replicateToOwner(ctx context.Context, hash string, env *ResultEnvelope) {
	if env == nil {
		return
	}
	owner := r.members.Owner(hash)
	if owner == "" || owner == r.self {
		return
	}
	raw, err := json.Marshal(env)
	if err != nil {
		return
	}
	callCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := r.peers.CachePut(callCtx, owner, hash, raw); err != nil {
		r.s.log.Warn("fleet: replicate result to owner", "owner", owner, "hash", hash, "err", err)
		return
	}
	if sc := obs.SpanFromContext(ctx); sc.Valid() {
		r.spans.Span(sc.Child(), "owner cache put "+shortHash(hash), "cache", start, time.Now(),
			map[string]any{"owner": owner})
	}
	r.fm.CacheReplications.Inc()
}

// pooledCells is one plan's cells on their way through the pool: the
// outcomes known so far and the futures of the rest.
type pooledCells struct {
	plan     *cellPlan
	outcomes []*ResultEnvelope
	futures  []*cellFuture // nil where the outcome is known
	pending  int           // non-nil futures at pooling time
}

// poolCells resolves each of plan's cells from the local cache or
// schedules its future under trace. On error nothing stays scheduled.
func (r *fleetRuntime) poolCells(plan *cellPlan, trace string) (*pooledCells, error) {
	p := &pooledCells{
		plan:     plan,
		outcomes: make([]*ResultEnvelope, len(plan.cells)),
		futures:  make([]*cellFuture, len(plan.cells)),
	}
	for i, hash := range plan.hashes {
		if env, ok := r.s.cache.peek(hash); ok {
			p.outcomes[i] = env
			continue
		}
		f, err := r.schedule(plan.cells[i], hash, trace)
		if err != nil {
			r.releaseCells(p)
			return nil, err
		}
		p.futures[i] = f
		p.pending++
	}
	return p, nil
}

// awaitCells waits for the pooled cells in assembly order, calling
// onCell after each, then folds the outcomes.
// It stops at the first failed cell or when ctx ends; either way the
// cells still unresolved are released (pending ones leave the pool,
// leased ones run on and are cached).
func (r *fleetRuntime) awaitCells(ctx context.Context, p *pooledCells, onCell func()) (*ResultEnvelope, error) {
	defer r.releaseCells(p)
	for i, f := range p.futures {
		if f == nil {
			continue
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		p.futures[i] = nil
		if f.err != nil {
			return nil, fmt.Errorf("service: cell %s: %w", shortHash(f.hash), f.err)
		}
		p.outcomes[i] = f.env
		onCell()
	}
	return p.plan.assemble(p.outcomes)
}

// releaseCells drops this plan's interest in its unresolved cells.
func (r *fleetRuntime) releaseCells(p *pooledCells) {
	for i, f := range p.futures {
		if f != nil {
			r.release(f)
			p.futures[i] = nil
		}
	}
}

// runSweep executes a sweep request through the cell pool: decompose,
// pool every cell, wait in assembly order while publishing per-cell
// progress, then fold. The plan and the fold are the library's own
// cell builders and Assemble steps, so the result is byte-identical to
// Config.RunFig3/RunKSweep/RunNSweep no matter where the cells ran.
func (r *fleetRuntime) runSweep(ctx context.Context, req Request, publish func(Event)) (*ResultEnvelope, error) {
	plan, err := planCells(req)
	if err != nil {
		return nil, err
	}
	// Cells inherit the sweep's trace: every executor (local or thief)
	// parses this traceparent and records its spans under one trace ID.
	sweepSC := obs.SpanFromContext(ctx)
	fanStart := time.Now()
	p, err := r.poolCells(plan, sweepSC.TraceParent())
	if err != nil {
		return nil, err
	}
	total := len(plan.cells)
	if sweepSC.Valid() {
		r.spans.Span(sweepSC.Child(), "sweep fan-out", "sweep", fanStart, time.Now(),
			map[string]any{"cells": total, "pooled": p.pending})
	}
	done := total - p.pending
	progress := func() {
		publish(Event{Type: EventSweep, Sweep: &SweepProgress{Done: done, Total: total}})
	}
	progress()
	return r.awaitCells(ctx, p, func() {
		done++
		progress()
	})
}

// --- HTTP handlers (mounted by Server.Handler under /v1/fleet) ---

func (s *Server) fleetStatus() fleet.Status {
	pending, leased, expired := s.fleet.table.Stats()
	return fleet.Status{
		Self:         s.fleet.self,
		Peers:        s.fleet.members.Peers(),
		CellsPending: pending,
		CellsLeased:  leased,
		LeaseExpiry:  expired,
		OpenBatches:  s.openBatches(),
	}
}

func (s *Server) handleFleetStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.fleetStatus())
}

func (s *Server) handleFleetJoin(w http.ResponseWriter, r *http.Request) {
	if s.opt.Fleet.Self == "" {
		// Peers could not reach back to a daemon with no advertised URL,
		// yet its executors would start stealing from the joiner.
		writeErr(w, http.StatusBadRequest, "join: this daemon runs standalone (started without -self)")
		return
	}
	var req fleet.JoinRequest
	if err := decodeBody(w, r, 1<<16, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "decode join: %v", err)
		return
	}
	if req.Peer == "" {
		writeErr(w, http.StatusBadRequest, "join: empty peer URL")
		return
	}
	if s.fleet.members.Add(req.Peer) {
		s.log.Info("fleet: peer joined", "peer", req.Peer)
	}
	// It reached us, so it is reachable; the prober keeps this honest.
	s.fleet.members.MarkReady(req.Peer, true, "")
	writeJSON(w, http.StatusOK, s.fleetStatus())
}

func (s *Server) handleFleetSteal(w http.ResponseWriter, r *http.Request) {
	var req fleet.StealRequest
	if err := decodeBody(w, r, 1<<16, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "decode steal: %v", err)
		return
	}
	if req.Worker == "" {
		writeErr(w, http.StatusBadRequest, "steal: empty worker")
		return
	}
	if req.Max <= 0 {
		req.Max = 1
	} else if req.Max > 32 {
		req.Max = 32
	}
	var leases []fleet.Lease
	if !s.draining.Load() { // a draining daemon grants nothing new
		leases = s.fleet.table.Acquire(req.Worker, req.Max, s.fleet.ttl, time.Now())
	}
	for _, l := range leases {
		s.fleet.fm.CellWait.Observe(l.Waited.Seconds())
		if sc, ok := obs.ParseTraceParent(l.Cell.Trace); ok {
			s.fleet.spans.Instant(sc.Child(), "steal grant "+shortHash(l.Cell.Hash), "steal",
				map[string]any{"thief": req.Worker, "waitedMs": float64(l.Waited.Microseconds()) / 1000})
		}
	}
	if n := len(leases); n > 0 {
		s.fleet.fm.CellsStolenOut.Add(float64(n))
	}
	writeJSON(w, http.StatusOK, fleet.StealResponse{Leases: leases})
}

func (s *Server) handleFleetComplete(w http.ResponseWriter, r *http.Request) {
	var req fleet.CompleteRequest
	if err := decodeBody(w, r, 64<<20, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "decode complete: %v", err)
		return
	}
	if !validHash(req.Hash) {
		writeErr(w, http.StatusBadRequest, "complete: bad hash %q", req.Hash)
		return
	}
	if req.Error != "" {
		s.fleet.complete(req.Hash, nil, req.Error)
	} else {
		var env ResultEnvelope
		if err := json.Unmarshal(req.Result, &env); err != nil {
			writeErr(w, http.StatusBadRequest, "complete: decode result: %v", err)
			return
		}
		s.fleet.complete(req.Hash, &env, "")
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleFleetRenew(w http.ResponseWriter, r *http.Request) {
	var req fleet.RenewRequest
	if err := decodeBody(w, r, 1<<20, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "decode renew: %v", err)
		return
	}
	n := s.fleet.table.Renew(req.LeaseIDs, s.fleet.ttl, time.Now())
	writeJSON(w, http.StatusOK, fleet.RenewResponse{Renewed: n})
}

func (s *Server) handleFleetCacheGet(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !validHash(hash) {
		writeErr(w, http.StatusBadRequest, "bad hash %q", hash)
		return
	}
	env, ok := s.cache.peek(hash)
	if !ok {
		writeErr(w, http.StatusNotFound, "no result %q", hash)
		return
	}
	s.fleet.fm.ProxyHitsServed.Inc()
	// The requester's traceparent (extracted by the middleware) puts
	// this owner-side serve on the same trace.
	if sc := obs.SpanFromContext(r.Context()); sc.Valid() {
		s.fleet.spans.Instant(sc.Child(), "owner cache serve "+shortHash(hash), "cache", nil)
	}
	writeJSON(w, http.StatusOK, env)
}

func (s *Server) handleFleetCachePut(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !validHash(hash) {
		writeErr(w, http.StatusBadRequest, "bad hash %q", hash)
		return
	}
	var env ResultEnvelope
	if err := decodeBody(w, r, 64<<20, &env); err != nil {
		writeErr(w, http.StatusBadRequest, "decode envelope: %v", err)
		return
	}
	env.Hash = hash
	// The owner is the hash's durability authority: persist.
	if err := s.cache.put(hash, &env, true); err != nil {
		s.log.Error("fleet: persist replicated result", "hash", hash, "err", err)
	}
	if sc := obs.SpanFromContext(r.Context()); sc.Valid() {
		s.fleet.spans.Instant(sc.Child(), "owner cache adopt "+shortHash(hash), "cache", nil)
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleFleetTrace serves the spans this daemon recorded for one trace
// ID — the peer-side half of the merged trace view.
func (s *Server) handleFleetTrace(w http.ResponseWriter, r *http.Request) {
	traceID := r.PathValue("trace")
	spans := s.fleet.spans.Spans(traceID)
	if spans == nil {
		spans = []obs.SpanRecord{}
	}
	writeJSON(w, http.StatusOK, spans)
}
