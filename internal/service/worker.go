package service

import (
	"context"
	"fmt"
	"time"

	"qlec/internal/energy"
	"qlec/internal/experiment"
	"qlec/internal/obs"
	"qlec/internal/sim"
)

// workerLoop is one pool worker: pop job IDs until the queue closes.
func (s *Server) workerLoop() {
	for {
		id, ok := s.queue.pop()
		if !ok {
			return
		}
		s.runJob(id)
	}
}

// runJob executes one queued job end to end: late cache check, state
// transition to running, execution under a per-job cancellable context,
// and terminal-state (or retry/interruption) bookkeeping.
func (s *Server) runJob(id string) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil || j.State != StateQueued {
		// Cancelled (or otherwise finished) while queued; the queue
		// entry is stale.
		s.mu.Unlock()
		return
	}
	// Fleet dedupe: the hash's ring owner may already hold this result
	// (computed by any peer). Fetching it installs it in the local cache,
	// so the late-dedupe check below answers the job without recomputing.
	// Network happens outside the server lock.
	if j.TraceID == "" {
		// A record persisted before jobs carried trace IDs: mint one now
		// (persisted with the running state below) so its spans are served.
		j.TraceID = obs.NewSpanContext().TraceID
	}
	hash, traceID := j.Hash, j.TraceID
	s.mu.Unlock()
	if _, ok := s.cache.peek(hash); !ok {
		s.fleet.proxyFetch(obs.ContextWithSpan(s.hardCtx,
			obs.SpanContext{TraceID: traceID, SpanID: obs.NewSpanID()}), hash)
	}
	s.mu.Lock()
	j = s.jobs[id]
	if j == nil || j.State != StateQueued { // cancelled while unlocked
		s.mu.Unlock()
		return
	}
	hub := s.hubs[id]
	if hub == nil {
		hub = newEventHub()
		s.hubs[id] = hub
	}
	// Late dedupe: an identical job may have finished between this
	// job's submission and its dequeue (the submit-path check can race
	// with completion). Content addressing makes the recheck free.
	if env, ok := s.cache.peek(j.Hash); ok && env != nil {
		now := time.Now().UTC()
		s.setStateLocked(j, StateDone)
		j.CacheHit = true
		j.StartedAt, j.FinishedAt = now, now
		delete(s.inflight, j.Hash)
		s.persistLocked(j)
		s.finishLocked(id)
		s.mu.Unlock()
		hub.publish(Event{Type: EventState, State: StateDone})
		hub.close()
		return
	}
	// jobSC anchors every span this job produces — locally and on any
	// peer that steals its cells — to the job's trace ID.
	jobSC := obs.SpanContext{TraceID: j.TraceID, SpanID: obs.NewSpanID()}
	if j.Attempts == 0 {
		// First execution attempt: the submit→dequeue gap is the queue
		// wait (retries would double-count their failed run time).
		s.om.queueWait.Observe(time.Since(j.CreatedAt).Seconds())
		s.fleet.spans.Span(jobSC, "queue wait", "queue", j.CreatedAt, time.Now(), nil)
	}
	s.setStateLocked(j, StateRunning)
	j.Attempts++
	j.StartedAt = time.Now().UTC()
	ctx, cancel := context.WithCancel(s.hardCtx)
	s.cancels[id] = cancel
	if j.CancelRequested {
		// DELETE raced the dequeue: start pre-cancelled so the engine
		// stops before its first round.
		cancel()
	}
	req := j.Request
	rid := j.RequestID
	attempt := j.Attempts
	s.persistLocked(j)
	s.mu.Unlock()

	log := s.log.With("job", id, "kind", string(req.Kind), "requestId", rid)
	ctx = obs.ContextWithRequestID(ctx, rid)
	ctx = obs.ContextWithSpan(ctx, jobSC)
	log.Info("job started", "attempt", attempt)
	s.om.busyWorkers.Inc()
	hub.publish(Event{Type: EventState, State: StateRunning})
	runStart := time.Now()
	var env *ResultEnvelope
	var err error
	switch req.Kind {
	case KindFig3, KindKSweep, KindNSweep:
		// Sweeps decompose into content-addressed cells that local
		// executors (and, in a fleet, stealing peers) drain in parallel;
		// the reassembled result is byte-identical to the library's. The
		// cells carry the kind="cell" profile labels where they execute.
		env, err = s.fleet.runSweep(ctx, req, hub.publish)
	default:
		var h experiment.Hooks
		if req.Kind == KindOne {
			h.Observer = s.roundObserver(req, jobSC, hub)
		}
		env, err = s.run(ctx, string(req.Kind), req, h)
	}
	elapsed := time.Since(runStart)
	s.om.busyWorkers.Dec()
	interrupted := ctx.Err() != nil
	cancel()

	s.mu.Lock()
	delete(s.cancels, id)
	now := time.Now().UTC()
	var requeue, closeHub bool
	switch {
	case err == nil:
		if env == nil {
			env = &ResultEnvelope{Kind: req.Kind}
		}
		env.Hash = j.Hash
		s.simsRun.Add(1)
		if perr := s.cache.put(j.Hash, env, true); perr != nil {
			log.Error("cache result", "err", perr)
		}
		s.setStateLocked(j, StateDone)
		j.Error = ""
		j.FinishedAt = now
		delete(s.inflight, j.Hash)
		closeHub = true
	case interrupted && j.CancelRequested:
		s.setStateLocked(j, StateCancelled)
		j.Error = "cancelled"
		j.FinishedAt = now
		delete(s.inflight, j.Hash)
		closeHub = true
	case interrupted:
		// Shutdown took the context, not a DELETE: the job is
		// interrupted, not over. It persists as queued and re-enters
		// the queue on the next start; the aborted attempt doesn't
		// count against the retry budget.
		s.setStateLocked(j, StateQueued)
		j.Attempts--
		log.Info("job interrupted by shutdown; persisted as queued")
	case IsTransient(err) && j.Attempts <= s.opt.MaxRetries:
		s.setStateLocked(j, StateQueued)
		j.Error = err.Error()
		requeue = true
		log.Warn("job transient failure",
			"attempt", j.Attempts, "maxAttempts", s.opt.MaxRetries+1, "err", err)
	default:
		s.setStateLocked(j, StateFailed)
		j.Error = err.Error()
		j.FinishedAt = now
		delete(s.inflight, j.Hash)
		closeHub = true
		log.Error("job failed", "err", err)
	}
	s.persistLocked(j)
	if closeHub {
		s.finishLocked(id)
	}
	state, errMsg, hash := j.State, j.Error, j.Hash
	s.mu.Unlock()

	if state == StateDone && env != nil {
		// Make the finished result proxy-visible fleet-wide (a no-op when
		// this daemon owns the hash, as a fleet of one always does).
		// Outside the server lock: this is a network call. The job ctx is
		// cancelled by now, so the replication span rides on hardCtx.
		s.fleet.replicateToOwner(obs.ContextWithSpan(s.hardCtx, jobSC), hash, env)
	}

	s.fleet.spans.Span(jobSC, "job "+id, "job", runStart, runStart.Add(elapsed),
		map[string]any{"kind": string(req.Kind), "state": string(state), "requestId": rid})
	if state.Terminal() {
		s.om.jobsTotal.With(string(state)).Inc()
		s.om.jobDuration.With(string(req.Kind), string(state)).Observe(elapsed.Seconds())
	}

	if requeue {
		hub.publish(Event{Type: EventState, State: StateQueued, Error: errMsg})
		s.queue.push(id)
		return
	}
	if closeHub {
		hub.publish(Event{Type: EventState, State: state, Error: errMsg})
		hub.close()
		if state == StateDone {
			log.Info("job done", "durationMs", float64(elapsed.Microseconds())/1000)
		}
	}
}

// roundObserver is a KindOne job's per-round hook: each round becomes
// an SSE round event, feeds the live simulation gauges, and records a
// span parented on the job span. Rounds get no span ID of their own:
// nothing is parented under a round, and that keeps crypto/rand out of
// the loop.
func (s *Server) roundObserver(req Request, jobSC obs.SpanContext, hub *eventHub) sim.Observer {
	cfg := req.Config
	collector := obs.NewSimCollector(s.reg, string(req.Protocols[0]),
		cfg.InitialEnergy*energy.Joules(cfg.N), cfg.K)
	round := obs.SpanContext{TraceID: jobSC.TraceID, Parent: jobSC.SpanID}
	prev := time.Now()
	return func(snap sim.RoundSnapshot) {
		now := time.Now()
		collector.Observe(snap)
		s.fleet.spans.Span(round, fmt.Sprintf("round %d", snap.Round), "sim", prev, now,
			map[string]any{"alive": snap.Alive, "delivered": snap.Stats.Delivered})
		prev = now
		hub.publish(Event{Type: EventRound, Round: &RoundProgress{
			Round:     snap.Round,
			Alive:     snap.Alive,
			Generated: snap.Stats.Generated,
			Delivered: snap.Stats.Delivered,
			EnergyJ:   float64(snap.EnergySoFar),
			Done:      snap.Done,
		}})
	}
}
