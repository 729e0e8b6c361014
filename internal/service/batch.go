package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"qlec/internal/obs"
	"qlec/internal/prof"
)

// maxBatchConfigs bounds one submission; thousands are the design
// point, unbounded is a memory hazard.
const maxBatchConfigs = 10_000

// BatchConfig is one config's progress record inside a batch.
type BatchConfig struct {
	Index int      `json:"index"`
	Kind  JobKind  `json:"kind"`
	Hash  string   `json:"hash"`
	State JobState `json:"state"`
	// CacheHit marks a config answered without scheduling any cells.
	CacheHit bool `json:"cacheHit,omitempty"`
	// Proxied marks a cache hit served by the hash's ring owner.
	Proxied bool   `json:"proxied,omitempty"`
	Error   string `json:"error,omitempty"`
	// Resources sums the config's cell bills wherever they executed;
	// nil for cache hits (a hit costs nothing new).
	Resources *prof.Usage `json:"resources,omitempty"`
}

// Batch is one POST /v1/batches submission: an ordered list of configs
// executed through the fleet's cell pool with one aggregate SSE stream.
// The record persists (requests included) and an interrupted batch
// resumes on the next start — completed configs answer from the cache,
// so resumption only re-runs what never finished.
type Batch struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	RequestID string   `json:"requestId,omitempty"`
	// TraceID is the distributed trace the batch's cells record under
	// wherever they execute (persisted so a resumed batch stays on its
	// original trace).
	TraceID string `json:"traceId,omitempty"`
	// Configs tracks per-config progress, in submission order.
	Configs     []BatchConfig `json:"configs"`
	ConfigsDone int           `json:"configsDone"`
	Failed      int           `json:"failed"`
	// CellsTotal/CellsDone roll up scheduling progress across every
	// config that needed execution (cache hits contribute zero cells).
	CellsTotal int       `json:"cellsTotal"`
	CellsDone  int       `json:"cellsDone"`
	CreatedAt  time.Time `json:"createdAt"`
	FinishedAt time.Time `json:"finishedAt"`
	// Resources rolls the per-config bills up: the batch's total
	// execution cost across the fleet (this process's resume epoch).
	Resources *prof.Usage `json:"resources,omitempty"`
	// Requests holds the normalized submissions; persisted for restart
	// resume, omitted from API views (fetch results by config hash).
	Requests []Request `json:"requests,omitempty"`
}

// view clones the batch for API responses: requests stay internal, and
// list views drop the per-config table too.
func (b *Batch) view(withConfigs bool) *Batch {
	c := *b
	c.Requests = nil
	if !withConfigs {
		c.Configs = nil
	} else {
		c.Configs = append([]BatchConfig(nil), b.Configs...)
	}
	return &c
}

// batchSubmission is the POST /v1/batches body.
type batchSubmission struct {
	Requests []Request `json:"requests"`
}

// handleBatchSubmit implements POST /v1/batches: validate and
// content-address every config up front (the whole batch is rejected on
// the first invalid one, with its index), then run the batch
// asynchronously through the cell pool.
func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var sub batchSubmission
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 256<<20))
	if err := dec.Decode(&sub); err != nil {
		writeErr(w, http.StatusBadRequest, "decode batch: %v", err)
		return
	}
	if len(sub.Requests) == 0 {
		writeErr(w, http.StatusBadRequest, "batch: empty request list")
		return
	}
	if len(sub.Requests) > maxBatchConfigs {
		writeErr(w, http.StatusBadRequest, "batch: %d configs exceeds the %d limit", len(sub.Requests), maxBatchConfigs)
		return
	}
	configs := make([]BatchConfig, len(sub.Requests))
	reqs := make([]Request, len(sub.Requests))
	for i, req := range sub.Requests {
		req = req.Normalize()
		if err := req.Validate(); err != nil {
			writeErr(w, http.StatusBadRequest, "batch config %d: %v", i, err)
			return
		}
		hash, err := req.Hash()
		if err != nil {
			writeErr(w, http.StatusBadRequest, "batch config %d: %v", i, err)
			return
		}
		reqs[i] = req
		configs[i] = BatchConfig{Index: i, Kind: req.Kind, Hash: hash, State: StateQueued}
	}
	rid := obs.RequestIDFromContext(r.Context())
	// Join the submitter's distributed trace, or root a fresh one: every
	// cell of the batch records its spans under this trace ID.
	sc := obs.SpanFromContext(r.Context())
	if !sc.Valid() {
		sc = obs.NewSpanContext()
	}

	s.mu.Lock()
	b := &Batch{
		ID:        fmt.Sprintf("b%08d", s.nextBatchID),
		State:     StateRunning,
		RequestID: rid,
		TraceID:   sc.TraceID,
		Configs:   configs,
		Requests:  reqs,
		CreatedAt: time.Now().UTC(),
	}
	s.nextBatchID++
	s.batches[b.ID] = b
	s.batchHubs[b.ID] = newEventHub()
	s.persistBatchLocked(b)
	view := b.view(true)
	s.mu.Unlock()

	s.wg.Add(1)
	go s.runBatch(b.ID)
	s.log.Info("batch queued", "batch", b.ID, "configs", len(reqs), "requestId", rid)
	writeJSON(w, http.StatusCreated, view)
}

func (s *Server) handleBatchList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]*Batch, 0, len(s.batches))
	for _, b := range s.batches {
		out = append(out, b.view(false))
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleBatchGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	b, ok := s.batches[id]
	var view *Batch
	if ok {
		view = b.view(true)
	}
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "no batch %q", id)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleBatchEvents implements GET /v1/batches/{id}/events: one SSE
// stream rolling the whole batch up — per-config terminal events
// (EventConfig), aggregate progress (EventBatch), and a final EventState.
func (s *Server) handleBatchEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	b, known := s.batches[id]
	hub := s.batchHubs[id]
	var terminal Event
	if known {
		terminal = Event{Seq: 1, Type: EventState, State: b.State}
	}
	s.mu.Unlock()
	if !known {
		writeErr(w, http.StatusNotFound, "no batch %q", id)
		return
	}
	s.serveSSE(w, r, hub, terminal)
}

// persistBatchLocked writes the batch record through to the store;
// caller holds s.mu.
func (s *Server) persistBatchLocked(b *Batch) {
	if s.store == nil {
		return
	}
	if err := s.store.SaveBatch(b); err != nil {
		s.log.Error("persist batch", "batch", b.ID, "err", err)
	}
}

// openBatches counts non-terminal batches (for fleet status).
func (s *Server) openBatches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, b := range s.batches {
		if !b.State.Terminal() {
			n++
		}
	}
	return n
}

// batchEntry is one config still executing: its index and its cells
// in the pool.
type batchEntry struct {
	idx   int
	cells *pooledCells
}

// runBatch drives one batch to completion: resolve or schedule every
// config's cells (so the whole batch is in the pool at once and peers
// can steal across config boundaries), then collect, assemble and
// publish per config in submission order. On shutdown the batch
// persists as running and resumes on the next start.
func (s *Server) runBatch(id string) {
	defer s.wg.Done()
	ctx := s.hardCtx

	s.mu.Lock()
	b := s.batches[id]
	hub := s.batchHubs[id]
	if b == nil || hub == nil || b.State.Terminal() {
		s.mu.Unlock()
		return
	}
	reqs := b.Requests
	// The batch's spans (fan-out, proxy fetches, replications, and every
	// cell wherever it runs) record under the trace minted at submission.
	var batchSC obs.SpanContext
	if b.TraceID != "" {
		batchSC = obs.SpanContext{TraceID: b.TraceID, SpanID: obs.NewSpanID()}
		ctx = obs.ContextWithSpan(ctx, batchSC)
	}
	trace := batchSC.TraceParent()
	// Recompute rollups from the config table: on resume the previous
	// process's cell counts are meaningless (its futures died with it).
	b.CellsTotal, b.CellsDone, b.ConfigsDone, b.Failed = 0, 0, 0, 0
	for _, c := range b.Configs {
		if c.State.Terminal() {
			b.ConfigsDone++
			if c.State == StateFailed {
				b.Failed++
			}
		}
	}
	s.mu.Unlock()

	lastPersist := time.Now()
	persist := func(force bool) {
		s.mu.Lock()
		if force || time.Since(lastPersist) > 500*time.Millisecond {
			s.persistBatchLocked(b)
			lastPersist = time.Now()
		}
		s.mu.Unlock()
	}
	progressEvent := func() Event {
		s.mu.Lock()
		p := &BatchProgress{
			ConfigsDone:  b.ConfigsDone,
			ConfigsTotal: len(b.Configs),
			CellsDone:    b.CellsDone,
			CellsTotal:   b.CellsTotal,
			Failed:       b.Failed,
		}
		s.mu.Unlock()
		return Event{Type: EventBatch, Batch: p}
	}
	finishConfig := func(i int, state JobState, cacheHit, proxied bool, errMsg string, usage *prof.Usage) {
		s.mu.Lock()
		c := &b.Configs[i]
		c.State = state
		c.CacheHit = cacheHit
		c.Proxied = proxied
		c.Error = errMsg
		if usage != nil && !usage.IsZero() {
			c.Resources = usage
			// Copy on write: batch views handed out earlier share the
			// old rollup.
			total := *usage
			if b.Resources != nil {
				total.Add(*b.Resources)
			}
			b.Resources = &total
		}
		b.ConfigsDone++
		if state == StateFailed {
			b.Failed++
		}
		ev := *c
		s.mu.Unlock()
		hub.publish(Event{Type: EventConfig, Config: &ev})
		hub.publish(progressEvent())
		persist(false)
	}

	// Phase 1: resolve every config against the shared cache (local,
	// then ring owner), or decompose it and pool its cells.
	fanStart := time.Now()
	var entries []*batchEntry
	for i := range reqs {
		s.mu.Lock()
		done := b.Configs[i].State.Terminal()
		hash := b.Configs[i].Hash
		s.mu.Unlock()
		if done {
			continue // resumed batch: this config finished last time
		}
		if ctx.Err() != nil {
			break
		}
		env, hit := s.cache.peek(hash)
		proxied := false
		if !hit {
			env, hit = s.fleet.proxyFetch(ctx, hash)
			proxied = hit
		}
		if hit && env != nil {
			finishConfig(i, StateDone, true, proxied, "", nil)
			continue
		}
		plan, err := planCells(reqs[i])
		if err != nil {
			finishConfig(i, StateFailed, false, false, err.Error(), nil)
			continue
		}
		cells, err := s.fleet.poolCells(plan, trace)
		if err != nil {
			finishConfig(i, StateFailed, false, false, err.Error(), nil)
			continue
		}
		s.mu.Lock()
		b.CellsTotal += len(plan.cells)
		b.CellsDone += len(plan.cells) - cells.pending
		s.mu.Unlock()
		entries = append(entries, &batchEntry{idx: i, cells: cells})
	}
	if batchSC.Valid() {
		scheduled := 0
		for _, e := range entries {
			scheduled += e.cells.pending
		}
		s.fleet.spans.Span(batchSC.Child(), "batch fan-out", "batch", fanStart, time.Now(),
			map[string]any{"batch": id, "configs": len(reqs), "pooled": scheduled})
	}
	hub.publish(progressEvent())

	// Phase 2: collect, assemble, publish — in submission order.
	cellDone := func() {
		s.mu.Lock()
		b.CellsDone++
		s.mu.Unlock()
		hub.publish(progressEvent())
	}
	for _, e := range entries {
		env, err := s.fleet.awaitCells(ctx, e.cells, cellDone)
		if ctx.Err() != nil {
			continue // shutdown: the config resumes on the next start
		}
		if err != nil {
			finishConfig(e.idx, StateFailed, false, false, err.Error(), &e.cells.usage)
			continue
		}
		s.mu.Lock()
		hash := b.Configs[e.idx].Hash
		s.mu.Unlock()
		env.Hash = hash
		if perr := s.cache.put(hash, env, true); perr != nil {
			s.log.Error("batch: cache config result", "batch", id, "hash", hash, "err", perr)
		}
		s.fleet.replicateToOwner(ctx, hash, env)
		finishConfig(e.idx, StateDone, false, false, "", &e.cells.usage)
	}

	if ctx.Err() != nil {
		// Shutdown mid-batch: stay running on disk, resume next start.
		persist(true)
		s.log.Info("batch interrupted by shutdown; persisted for resume", "batch", id)
		return
	}
	s.mu.Lock()
	b.State = StateDone
	b.FinishedAt = time.Now().UTC()
	configs, failed := b.ConfigsDone, b.Failed
	s.persistBatchLocked(b)
	s.mu.Unlock()
	hub.publish(progressEvent())
	hub.publish(Event{Type: EventState, State: StateDone})
	hub.close()
	s.log.Info("batch done", "batch", id, "configs", configs, "failed", failed)
}

// resumeBatches relaunches every non-terminal persisted batch. Called
// once from New, after the job table reload.
func (s *Server) resumeBatches() {
	if s.store == nil {
		return
	}
	batches, warns := s.store.LoadBatches()
	for _, w := range warns {
		s.log.Warn("reload batches", "err", w)
	}
	for _, b := range batches {
		if n := batchSeq(b.ID); n >= s.nextBatchID {
			s.nextBatchID = n + 1
		}
		s.batches[b.ID] = b
		if b.State.Terminal() {
			continue
		}
		s.batchHubs[b.ID] = newEventHub()
		s.log.Info("reload: resuming interrupted batch", "batch", b.ID, "configs", len(b.Configs))
		s.wg.Add(1)
		go s.runBatch(b.ID)
	}
}

// batchSeq parses the numeric tail of a batch ID; -1 when malformed.
func batchSeq(id string) int {
	if len(id) < 2 || id[0] != 'b' {
		return -1
	}
	n := 0
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}
