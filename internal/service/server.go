package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qlec/internal/audit"
	"qlec/internal/experiment"
	"qlec/internal/obs"
	"qlec/internal/prof"
	"qlec/internal/protocol"
)

// Options configures a Server. The zero value works: in-memory store,
// two workers, default queue bound, the production Execute run
// function.
type Options struct {
	// DataDir enables the disk-backed store; empty keeps everything in
	// memory (tests, throwaway servers).
	DataDir string
	// Workers sizes the pool; default 2.
	Workers int
	// QueueLimit bounds queued jobs; submissions beyond it get 503.
	// Default 256.
	QueueLimit int
	// MaxRetries is how many times a transiently-failed job re-enters
	// the queue before failing terminally. Default 1.
	MaxRetries int
	// Run executes jobs; default Execute. Tests substitute stubs.
	Run RunFunc
	// Logger receives structured operational logs; default discards.
	Logger *slog.Logger
	// Metrics is the registry the server instruments and serves at
	// /metrics; nil creates a private one.
	Metrics *obs.Registry
	// Pprof mounts net/http/pprof under /debug/pprof/ when true.
	Pprof bool
	// TraceHistory bounds the traces the span store retains (FIFO
	// eviction); default obs.DefaultStoreTraces (256).
	TraceHistory int
	// Fleet configures the cell pool, peer-to-peer work stealing and the
	// shared result cache (DESIGN.md §14). The zero value runs a fleet
	// of one.
	Fleet FleetOptions

	// Deprecated: no effect; kept only because bench/daemon.go sets them.
	// AuditHistory once bounded the per-job audit artifacts qlecd kept;
	// artifacts are now rebuilt on demand (see handleAudit).
	AuditHistory          int
	ProfileHistory        int
	RuntimeSampleInterval time.Duration
	AutoProfileMinGap     time.Duration
}

// Server is the qlecd core: job table, queue, worker pool, cache,
// store, and the HTTP handler over them. Create with New, serve
// Handler(), stop with Drain (graceful) or Close (hard).
type Server struct {
	opt   Options
	store *Store // nil without DataDir
	cache *resultCache
	queue *jobQueue

	// Memory holds the live (queued or running) jobs and batches and the
	// last maxFinishedRecords finished ones; the journal holds every
	// record, and the store's offset index reads the older ones back.
	mu          sync.Mutex
	jobs        map[string]*Job                // queued and running jobs
	batches     map[string]*Batch              // running batches
	hubs        map[string]*eventHub           // event hubs of the live jobs and batches
	finished    *obs.Bounded[string, finished] // the last maxFinishedRecords finished records
	cancels     map[string]context.CancelFunc
	inflight    map[string]string // request hash → queued/running job ID
	nextID      int
	nextBatchID int

	fleet *fleetRuntime

	simsRun  atomic.Int64
	draining atomic.Bool

	log   *slog.Logger
	reg   *obs.Registry
	om    *serverMetrics
	httpm *obs.HTTPMetrics
	// replays admits at most Options.Workers audit replays at once.
	replays chan struct{}

	hardCtx    context.Context
	hardCancel context.CancelFunc
	wg         sync.WaitGroup
}

// New builds and starts a server: opens the store, reloads persisted
// jobs and batches (interrupted ones resume), indexes persisted
// results, and launches the worker pool.
func New(opt Options) (*Server, error) {
	if opt.Workers <= 0 {
		opt.Workers = 2
	}
	if opt.QueueLimit <= 0 {
		opt.QueueLimit = 256
	}
	if opt.MaxRetries < 0 {
		opt.MaxRetries = 0
	} else if opt.MaxRetries == 0 {
		opt.MaxRetries = 1
	}
	if opt.Run == nil {
		opt.Run = Execute
	}
	if opt.Logger == nil {
		opt.Logger = obs.NopLogger()
	}
	if opt.Metrics == nil {
		opt.Metrics = obs.NewRegistry()
	}
	s := &Server{
		opt:         opt,
		queue:       newJobQueue(),
		jobs:        make(map[string]*Job),
		batches:     make(map[string]*Batch),
		hubs:        make(map[string]*eventHub),
		finished:    obs.NewBounded[string, finished](maxFinishedRecords),
		cancels:     make(map[string]context.CancelFunc),
		inflight:    make(map[string]string),
		nextID:      1,
		nextBatchID: 1,
		log:         opt.Logger,
		reg:         opt.Metrics,
		replays:     make(chan struct{}, opt.Workers),
	}
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
	prof.RegisterRuntime(s.reg)
	if opt.DataDir != "" {
		store, err := OpenStore(opt.DataDir)
		if err != nil {
			return nil, err
		}
		s.store = store
	}
	s.cache = newResultCache(s.store)
	s.om = newServerMetrics(s.reg, s)
	s.httpm = obs.NewHTTPMetrics(s.reg)
	fr, err := newFleetRuntime(s, opt.Fleet)
	if err != nil {
		return nil, err
	}
	s.fleet = fr
	newFleetCollectors(s.reg, s)
	if err := s.reload(); err != nil {
		return nil, err
	}
	for i := 0; i < opt.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.workerLoop()
		}()
	}
	s.fleet.start()
	return s, nil
}

// reload restores the job and batch tables from the store. Jobs the
// previous process left queued re-enter the queue; jobs it left running
// were interrupted mid-flight (crash, hard kill), so they re-enter the
// queue too — re-execution is safe because simulations are
// deterministic and results are content-addressed. Unfinished batches
// resume from their submit records. Of the finished records only the
// last maxFinishedRecords to finish stay in memory; the store's index
// serves the rest.
func (s *Server) reload() error {
	if s.store == nil {
		return nil
	}
	jobs, batches, warns, err := s.store.LoadRecords()
	for _, w := range warns {
		s.log.Warn("reload", "err", w)
	}
	if err != nil {
		return fmt.Errorf("service: reload failed: %w", err)
	}
	var done []finished
	for _, j := range jobs { // sorted by ID = submission order
		s.nextID = max(s.nextID, idSeq(j.ID)+1)
		if g := s.om.jobs[j.State]; g != nil {
			g.Inc()
		}
		if j.State == StateRunning {
			s.log.Info("reload: requeueing job interrupted at shutdown", "job", j.ID)
			s.setStateLocked(j, StateQueued)
			j.CancelRequested = false
			s.persistLocked(j)
		}
		if j.State != StateQueued {
			done = append(done, finished{job: j})
			continue
		}
		s.jobs[j.ID] = j
		s.hubs[j.ID] = newEventHub()
		if prev, dup := s.inflight[j.Hash]; dup {
			// Two queued jobs with one identity (crash between the
			// duplicate check and persistence): keep the older one
			// queued, the younger will coalesce via the cache when
			// the older finishes.
			s.log.Warn("reload: queued jobs share a hash", "older", prev, "younger", j.ID, "hash", j.Hash)
		} else {
			s.inflight[j.Hash] = j.ID
		}
		s.queue.push(j.ID)
	}
	var resume []string
	for _, b := range batches {
		s.nextBatchID = max(s.nextBatchID, idSeq(b.ID)+1)
		if b.State.Terminal() {
			done = append(done, finished{batch: b})
			continue
		}
		s.batches[b.ID] = b
		s.hubs[b.ID] = newEventHub()
		resume = append(resume, b.ID)
	}
	slices.SortStableFunc(done, func(a, b finished) int { return a.finishedAt().Compare(b.finishedAt()) })
	for _, f := range done[max(0, len(done)-maxFinishedRecords):] {
		s.finished.Put(f.id(), f)
	}
	for _, id := range resume {
		s.log.Info("reload: resuming interrupted batch", "batch", id, "configs", len(s.batches[id].Configs))
		s.wg.Add(1)
		go s.runBatch(id)
	}
	return nil
}

// Handler returns the HTTP API, wrapped in the obs middleware
// (request IDs, request logs, HTTP metrics).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/audit", s.handleAudit)
	mux.HandleFunc("GET /v1/protocols", s.handleProtocols)
	mux.HandleFunc("GET /v1/results/{hash}", s.handleResult)
	mux.HandleFunc("POST /v1/batches", s.handleBatchSubmit)
	mux.HandleFunc("GET /v1/batches", s.handleBatchList)
	mux.HandleFunc("GET /v1/batches/{id}", s.handleBatchGet)
	mux.HandleFunc("GET /v1/batches/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/batches/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/fleet", s.handleFleetStatus)
	mux.HandleFunc("POST /v1/fleet/join", s.handleFleetJoin)
	mux.HandleFunc("POST /v1/fleet/steal", s.handleFleetSteal)
	mux.HandleFunc("POST /v1/fleet/complete", s.handleFleetComplete)
	mux.HandleFunc("POST /v1/fleet/renew", s.handleFleetRenew)
	mux.HandleFunc("GET /v1/fleet/cache/{hash}", s.handleFleetCacheGet)
	mux.HandleFunc("PUT /v1/fleet/cache/{hash}", s.handleFleetCachePut)
	mux.HandleFunc("GET /v1/fleet/trace/{trace}", s.handleFleetTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /metrics", s.reg)
	mux.HandleFunc("GET /version", s.handleVersion)
	if s.opt.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return obs.Middleware(s.log, s.httpm, mux)
}

// httpError is the JSON error payload.
type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, httpError{Error: fmt.Sprintf(format, args...)})
}

// decodeBody decodes a request body of at most limit bytes that holds
// exactly one JSON value into v; anything but whitespace after the
// value is an error.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// handleSubmit implements POST /v1/jobs: validate, content-address,
// dedupe (done → cache hit, in-flight → coalesce), enqueue.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req Request
	if err := decodeBody(w, r, 32<<20, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	req = req.Normalize()
	if err := req.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	hash, err := req.Hash()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}

	rid := obs.RequestIDFromContext(r.Context())
	// Join the submitter's distributed trace (traceparent extracted by
	// the middleware) or root a fresh one; either way the job's spans —
	// here and on every peer that touches its cells — share one trace ID.
	sc := obs.SpanFromContext(r.Context())
	if !sc.Valid() {
		sc = obs.NewSpanContext()
	}

	if _, ok := s.cache.peek(hash); ok {
		// Identical experiment already simulated: answer without
		// queueing. The job record exists so the client workflow
		// (submit → poll → fetch) is uniform either way.
		s.cache.hits.Add(1)
		s.mu.Lock()
		j := s.newJobLocked(req, hash)
		j.RequestID = rid
		j.TraceID = sc.TraceID
		s.setStateLocked(j, StateDone)
		j.CacheHit = true
		j.StartedAt = j.CreatedAt
		j.FinishedAt = j.CreatedAt
		s.persistLocked(j)
		s.finishLocked(j.ID)
		view := j.clone()
		s.mu.Unlock()
		s.fleet.spans.Instant(sc, "submit "+j.ID, "submit",
			map[string]any{"job": j.ID, "cacheHit": true})
		writeJSON(w, http.StatusOK, view)
		return
	}

	s.mu.Lock()
	if id, ok := s.inflight[hash]; ok {
		// Same experiment already queued or running: coalesce onto it.
		// This still counts as a cache hit — the submission triggers no
		// new simulation.
		s.cache.hits.Add(1)
		view := s.jobs[id].clone()
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, view)
		return
	}
	s.cache.misses.Add(1)
	if s.queue.depth() >= s.opt.QueueLimit {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "queue full (%d jobs)", s.opt.QueueLimit)
		return
	}
	j := s.newJobLocked(req, hash)
	j.RequestID = rid
	j.TraceID = sc.TraceID
	s.setStateLocked(j, StateQueued)
	s.hubs[j.ID] = newEventHub()
	s.inflight[hash] = j.ID
	s.persistLocked(j)
	view := j.clone()
	s.mu.Unlock()
	s.fleet.spans.Instant(sc, "submit "+j.ID, "submit", map[string]any{"job": j.ID})
	s.queue.push(j.ID)
	s.log.Info("job queued", "job", j.ID, "kind", string(req.Kind), "hash", hash, "requestId", rid)
	writeJSON(w, http.StatusCreated, view)
}

// newJobLocked allocates the next job record into the live table;
// caller holds s.mu.
func (s *Server) newJobLocked(req Request, hash string) *Job {
	j := &Job{
		ID:        recordID('j', s.nextID),
		Hash:      hash,
		Request:   req,
		CreatedAt: time.Now().UTC(),
	}
	s.nextID++
	s.jobs[j.ID] = j
	return j
}

// setStateLocked moves j to state st and keeps the per-state job
// counts behind qlecd_jobs; caller holds s.mu.
func (s *Server) setStateLocked(j *Job, st JobState) {
	if g := s.om.jobs[j.State]; g != nil {
		g.Dec()
	}
	j.State = st
	s.om.jobs[st].Inc()
}

// persistLocked writes the job record through to the store (when one is
// configured); caller holds s.mu, which also serializes the file write
// per job.
func (s *Server) persistLocked(j *Job) {
	if s.store == nil {
		return
	}
	if err := s.store.SaveJob(j); err != nil {
		s.log.Error("persist job", "job", j.ID, "err", err)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	recs := s.listRecords('j')
	out := make([]*Job, len(recs))
	for i, f := range recs {
		out[i] = f.job
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	f := s.record(id)
	if f.job == nil {
		writeErr(w, http.StatusNotFound, "no job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, f.job)
}

// handleCancel implements DELETE /v1/jobs/{id}. Cancelling a queued job
// is immediate; a running job stops at its next round boundary (the
// engine's cancellation unit). Cancelling a terminal job is a no-op —
// DELETE is idempotent.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, live := s.jobs[id]
	if !live {
		s.mu.Unlock()
		if f := s.record(id); f.job != nil {
			writeJSON(w, http.StatusOK, f.job)
			return
		}
		writeErr(w, http.StatusNotFound, "no job %q", id)
		return
	}
	switch j.State {
	case StateQueued:
		s.setStateLocked(j, StateCancelled)
		j.CancelRequested = true
		j.Error = "cancelled while queued"
		j.FinishedAt = time.Now().UTC()
		delete(s.inflight, j.Hash)
		s.persistLocked(j)
		if hub := s.finishLocked(id); hub != nil {
			hub.publish(Event{Type: EventState, State: StateCancelled, Error: j.Error})
			hub.close()
		}
		s.log.Info("job cancelled while queued", "job", id, "requestId", j.RequestID)
	case StateRunning:
		j.CancelRequested = true
		if cancel := s.cancels[id]; cancel != nil {
			cancel()
		}
		s.persistLocked(j)
		s.log.Info("job cancel requested while running", "job", id, "requestId", j.RequestID)
	}
	view := j.clone()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// finished is one entry of the bounded store of recently finished
// records: a job or a batch (the other is nil) and its event hub (nil
// for cache hits and reloaded records).
type finished struct {
	job   *Job
	batch *Batch
	hub   *eventHub
}

func (f finished) id() string {
	if f.job != nil {
		return f.job.ID
	}
	return f.batch.ID
}

func (f finished) finishedAt() time.Time {
	if f.job != nil {
		return f.job.FinishedAt
	}
	return f.batch.FinishedAt
}

// finishLocked moves a job or batch that just reached a terminal state,
// and was persisted in it, from the live tables to the bounded store of
// recently finished records, and returns its hub (nil if it had none).
// The store's oldest record leaves memory: the journal serves it from
// then on, and without a data dir it is gone. Caller holds s.mu.
func (s *Server) finishLocked(id string) *eventHub {
	f := finished{job: s.jobs[id], batch: s.batches[id], hub: s.hubs[id]}
	delete(s.jobs, id)
	delete(s.batches, id)
	delete(s.hubs, id)
	s.finished.Put(id, f)
	return f.hub
}

// record returns job or batch id (by its prefix) as the API serves it:
// a live one copied under s.mu, else a recently finished one, else one
// read back from the journal. A finished record never changes, so it is
// served as held. Both job and batch are nil for an unknown ID, and for
// one past the retention limit of a server without a data dir. Caller
// must not hold s.mu.
func (s *Server) record(id string) (f finished) {
	s.mu.Lock()
	if j, live := s.jobs[id]; live {
		f = finished{job: j.clone(), hub: s.hubs[id]}
	} else if b, live := s.batches[id]; live {
		f = finished{batch: b.view(true), hub: s.hubs[id]}
	}
	s.mu.Unlock()
	if f.job != nil || f.batch != nil {
		return f
	}
	// A record leaves the live tables for the finished store, and that
	// store for the journal, only once the journal holds its last state.
	if f, ok := s.finished.Get(id); ok {
		if f.batch != nil {
			f.batch = f.batch.view(true)
		}
		return f
	}
	if s.store != nil {
		var err error
		if f.job, f.batch, err = s.store.LoadRecord(id); err != nil && !errors.Is(err, ErrNotFound) {
			s.log.Error("read record", "id", id, "err", err)
		}
		if f.batch != nil {
			f.batch = f.batch.view(true)
		}
	}
	return f
}

// listRecords returns every job or batch (prefix 'j' or 'b') as record
// serves it, in ID order: the journal's records merged with the live
// and recently finished ones in memory. Nothing outlives the call.
func (s *Server) listRecords(prefix byte) []finished {
	mem := make(map[int]finished)
	s.mu.Lock()
	if prefix == 'j' {
		for id, j := range s.jobs {
			mem[idSeq(id)] = finished{job: j.clone()}
		}
	} else {
		for id, b := range s.batches {
			mem[idSeq(id)] = finished{batch: b.view(true)}
		}
	}
	s.mu.Unlock()
	for _, f := range s.finished.Values() {
		if id := f.id(); id[0] == prefix {
			if _, live := mem[idSeq(id)]; !live {
				mem[idSeq(id)] = f
			}
		}
	}
	seqs := make([]int, 0, len(mem))
	for seq := range mem {
		seqs = append(seqs, seq)
	}
	if s.store != nil {
		for _, seq := range s.store.Seqs(prefix) {
			if _, held := mem[seq]; !held {
				seqs = append(seqs, seq)
			}
		}
	}
	slices.Sort(seqs)
	out := make([]finished, 0, len(seqs))
	for _, seq := range seqs {
		f, held := mem[seq]
		if !held {
			var err error
			if f.job, f.batch, err = s.store.LoadRecord(recordID(prefix, seq)); err != nil {
				s.log.Error("list: read record", "id", recordID(prefix, seq), "err", err)
				continue
			}
		}
		out = append(out, f)
	}
	return out
}

// recordRef is what the event and trace endpoints serve of one job or
// batch record.
type recordRef struct {
	what, id string
	// hub is the live or recently finished event hub; nil once the
	// record's history aged out, or if it never had one.
	hub *eventHub
	// terminal is the stream's fallback event: the record's state.
	terminal Event
	traceID  string
}

// lookup resolves the {id} of a /v1/jobs/ or /v1/batches/ route (the
// route picks the table) to its record, or answers 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (rec recordRef, ok bool) {
	rec.what, rec.id = "job", r.PathValue("id")
	if strings.HasPrefix(r.URL.Path, "/v1/batches/") {
		rec.what = "batch"
	}
	f := s.record(rec.id)
	if j := f.job; j != nil && rec.what == "job" {
		rec.terminal = Event{Seq: 1, Type: EventState, State: j.State, Error: j.Error, Resources: j.Resources}
		rec.traceID, ok = j.TraceID, true
	} else if b := f.batch; b != nil && rec.what == "batch" {
		rec.terminal = Event{Seq: 1, Type: EventState, State: b.State, Resources: b.Resources}
		rec.traceID, ok = b.TraceID, true
	}
	rec.hub = f.hub
	if !ok {
		writeErr(w, http.StatusNotFound, "no %s %q", rec.what, rec.id)
	}
	return rec, ok
}

// handleEvents implements GET /v1/jobs/{id}/events and GET
// /v1/batches/{id}/events: an SSE stream of the record's progress. The
// full history replays first (or from Last-Event-ID on reconnect), then
// live events until the record reaches a terminal state — the final
// event is always that state transition. A batch's stream rolls the
// whole batch up: per-config terminal events (EventConfig) and
// aggregate progress (EventBatch). History outlives the record only for
// the last maxFinishedRecords finished ones; an older one streams its
// terminal state alone.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if rec, ok := s.lookup(w, r); ok {
		s.serveSSE(w, r, rec.hub, rec.terminal)
	}
}

// serveSSE streams a hub over Server-Sent Events: history replays first
// (or from Last-Event-ID on reconnect), then live events until the hub
// closes. A nil hub means the record was terminal before any stream
// existed (cache hit, reloaded history) or its history has aged out:
// the one fallback event the client needs is emitted instead.
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, hub *eventHub, terminal Event) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	s.om.sseSubs.Inc()
	defer s.om.sseSubs.Dec()
	afterSeq := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			afterSeq = n
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	writeEvent := func(e Event) bool {
		data, err := json.Marshal(e)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	if hub == nil {
		writeEvent(terminal)
		return
	}

	replay, live, unsub := hub.subscribe(afterSeq)
	defer unsub()
	for _, e := range replay {
		if !writeEvent(e) {
			return
		}
	}
	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()
	for {
		select {
		case e, ok := <-live:
			if !ok {
				return // job finished (or server shut down); stream complete
			}
			if !writeEvent(e) {
				return
			}
		case <-keepalive.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-s.hardCtx.Done():
			return
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	env, ok := s.cache.peek(hash)
	if !ok {
		writeErr(w, http.StatusNotFound, "no result %q", hash)
		return
	}
	writeJSON(w, http.StatusOK, env)
}

// handleProtocols implements GET /v1/protocols: the registered protocol
// roster — canonical ids, aliases, paper references and default
// parameters — so clients enumerate and validate against the daemon's
// actual registry instead of a hardcoded list.
func (s *Server) handleProtocols(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, protocol.Infos())
}

// handleHealthz is pure liveness: 200 as long as the process serves
// HTTP, draining or not. Use /readyz for load-balancing and fleet
// routing decisions.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReadyz is drain-aware readiness: 503 from the moment a graceful
// shutdown begins, so peers stop routing new work here while in-flight
// jobs finish. The fleet prober keys off this endpoint.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	body := map[string]any{"status": "ready"}
	if s.draining.Load() {
		status = http.StatusServiceUnavailable
		body["status"] = "draining"
	}
	writeJSON(w, status, body)
}

// handleTrace implements GET /v1/jobs/{id}/trace and GET
// /v1/batches/{id}/trace: the record's span recording as Chrome
// trace_event JSON (load in chrome://tracing or Perfetto) — every span
// any peer recorded under its trace ID, one lane per daemon: for a
// batch, the fan-out, pooling, steals and every cell execution
// wherever it ran. Traces age out FIFO after Options.TraceHistory
// traces.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if rec, ok := s.lookup(w, r); ok {
		s.serveTrace(w, rec)
	}
}

// serveTrace renders one trace's fleet-wide spans as Chrome JSON, or
// 404s when no daemon holds any (a pre-trace record, or aged out).
func (s *Server) serveTrace(w http.ResponseWriter, rec recordRef) {
	var spans []obs.SpanRecord
	if rec.traceID != "" {
		spans = s.collectFleetSpans(rec.traceID)
	}
	if len(spans) == 0 {
		writeErr(w, http.StatusNotFound, "no trace for %s %q (pre-trace record, or spans aged out)", rec.what, rec.id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = obs.WriteChromeTrace(w, spans)
}

// collectFleetSpans gathers every span recorded under one trace ID:
// this daemon's fleet span store plus each ready peer's, so the caller
// can stitch a multi-daemon timeline. Peer failures degrade to a
// partial trace, never an error.
func (s *Server) collectFleetSpans(traceID string) []obs.SpanRecord {
	spans := s.fleet.spans.Spans(traceID)
	for _, peer := range s.fleet.members.ReadyOthers() {
		ctx, cancel := context.WithTimeout(s.hardCtx, 2*time.Second)
		ps, err := s.fleet.peers.TraceSpans(ctx, peer, traceID)
		cancel()
		if err != nil {
			s.log.Warn("trace: collect peer spans", "peer", peer, "trace", traceID, "err", err)
			continue
		}
		spans = append(spans, ps...)
	}
	return spans
}

// handleAudit implements GET /v1/jobs/{id}/audit: the flight-recorder
// artifact of a finished KindOne job (energy ledger, decision records,
// conservation report; cmd/qlecaudit consumes it). Jobs run unrecorded,
// so the artifact is built on demand: the job's stored, normalized
// request runs again with a fresh recorder. Simulations are
// deterministic, so this is the artifact of the run the job made, as
// the current binary computes it; a cache-hit job carries the same
// request and gets the same artifact. The replay feeds no live
// simulation gauges, stops when the request or a hard shutdown cancels
// it, and waits for one of Options.Workers replay slots. Sweeps,
// unknown and unfinished jobs 404.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	f := s.record(id)
	if f.job == nil {
		writeErr(w, http.StatusNotFound, "no job %q", id)
		return
	}
	req := f.job.Request
	if req.Kind != KindOne || f.job.State != StateDone {
		writeErr(w, http.StatusNotFound, "no audit for job %q (only finished single runs have one)", id)
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(s.hardCtx, cancel)()
	select {
	case s.replays <- struct{}{}:
		defer func() { <-s.replays }()
	case <-ctx.Done():
		writeErr(w, http.StatusServiceUnavailable, "audit replay for job %q cancelled while waiting", id)
		return
	}
	rec := audit.New(audit.Options{Metrics: s.reg})
	if _, err := s.opt.Run(ctx, req, experiment.Hooks{Audit: rec}); err != nil {
		status := http.StatusInternalServerError
		if ctx.Err() != nil {
			status = http.StatusServiceUnavailable
		}
		writeErr(w, status, "audit replay for job %q: %v", id, err)
		return
	}
	art := rec.Artifact()
	if art.Report.Rounds == 0 {
		// The RunFunc never drove the recorder (stub runners in tests).
		writeErr(w, http.StatusNotFound, "no audit for job %q (its run recorded nothing)", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = audit.WriteArtifact(w, art)
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, obs.Version())
}

// Drain gracefully shuts the pool down: new submissions get 503,
// workers finish their in-flight jobs (queued jobs stay queued — they
// persist and resume on the next start), then every event stream
// closes. If ctx expires first, the remaining jobs are hard-cancelled
// and Drain returns ctx's error after they unwind.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true) // /readyz flips to 503; steal grants stop
	s.queue.close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.hardCancel() // cancel in-flight jobs; workers exit promptly
		<-done
	}
	// Cell executors stop only after every consumer (workers, batch
	// goroutines) has drained — they are what completes the futures
	// those consumers wait on.
	s.fleet.stopWork()
	s.closeHubs()
	s.closeStore()
	return err
}

// Close hard-stops the server: in-flight jobs are cancelled (and will
// re-run on the next start — their interrupted state persists as
// queued), workers exit, streams close.
func (s *Server) Close() {
	s.draining.Store(true)
	s.queue.close()
	s.hardCancel()
	s.wg.Wait()
	s.fleet.stopWork()
	s.closeHubs()
	s.closeStore()
}

func (s *Server) closeStore() {
	if s.store == nil {
		return
	}
	if err := s.store.Close(); err != nil {
		s.log.Error("close job journal", "err", err)
	}
}

func (s *Server) closeHubs() {
	s.mu.Lock()
	hubs := make([]*eventHub, 0, len(s.hubs))
	for _, h := range s.hubs {
		hubs = append(hubs, h)
	}
	s.mu.Unlock()
	for _, h := range hubs {
		h.close()
	}
}
