package service_test

// End-to-end tests of the qlecd core: a real Server behind an
// httptest.Server, driven through the typed client the way cmd/qlecsim
// -remote drives a real daemon. The cache/dedupe tests run the real
// simulation engine on a deliberately tiny network; the
// timing-sensitive lifecycle tests (retry, drain, queue pressure)
// substitute stub RunFuncs so they synchronize on channels instead of
// sleeps.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qlec/internal/experiment"
	"qlec/internal/service"
	"qlec/internal/service/client"
)

// tinyCfg is a fast-but-real experiment configuration: a full
// simulation takes a few milliseconds.
func tinyCfg() experiment.Config {
	cfg := experiment.PaperConfig()
	cfg.N = 16
	cfg.Side = 80
	cfg.K = 2
	cfg.Rounds = 2
	cfg.Seeds = []uint64{1}
	cfg.Lambdas = []float64{4}
	cfg.LifespanMaxRounds = 50
	cfg.Workers = 1
	return cfg
}

func oneRequest(cfg experiment.Config) service.Request {
	return service.Request{
		Kind:      service.KindOne,
		Config:    cfg,
		Protocols: []experiment.ProtocolID{experiment.QLEC},
		Lambda:    4,
		Seed:      1,
	}
}

// newTestServer starts a Server with the given options behind an
// httptest listener and returns a no-retry client against it.
func newTestServer(t *testing.T, opt service.Options) (*service.Server, *client.Client) {
	t.Helper()
	srv, err := service.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close() // unblocks SSE handlers before the listener waits on them
		ts.Close()
	})
	cl := client.New(ts.URL, client.WithRetries(0), client.WithBackoff(time.Millisecond))
	return srv, cl
}

func collectEvents(t *testing.T, cl *client.Client, id string) []service.Event {
	t.Helper()
	var events []service.Event
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cl.Events(ctx, id, func(e service.Event) bool {
		events = append(events, e)
		return true
	}); err != nil {
		t.Fatalf("events %s: %v", id, err)
	}
	return events
}

// TestEndToEndCacheFlow is the headline contract: submit → stream →
// fetch, then an identical resubmission is answered from the
// content-addressed cache — the simulation ran exactly once.
func TestEndToEndCacheFlow(t *testing.T) {
	srv, cl := newTestServer(t, service.Options{Workers: 1})
	ctx := context.Background()
	req := oneRequest(tinyCfg())

	j1, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if j1.CacheHit {
		t.Fatal("first submission reported a cache hit")
	}
	done, err := cl.Wait(ctx, j1.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != service.StateDone {
		t.Fatalf("job finished %s (error %q), want done", done.State, done.Error)
	}
	if done.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", done.Attempts)
	}

	// The event stream (replayed in full after completion) must contain
	// at least one per-round progress event and end with the terminal
	// state transition.
	events := collectEvents(t, cl, j1.ID)
	rounds := 0
	for _, e := range events {
		if e.Type == service.EventRound {
			rounds++
		}
	}
	if rounds < 1 {
		t.Errorf("stream carried %d round events, want >= 1", rounds)
	}
	last := events[len(events)-1]
	if last.Type != service.EventState || last.State != service.StateDone {
		t.Errorf("last event = %+v, want terminal state done", last)
	}

	env, err := cl.Result(ctx, done.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if env.One == nil || env.One.Rounds != req.Config.Rounds {
		t.Fatalf("result envelope = %+v, want a %d-round single-run payload", env, req.Config.Rounds)
	}

	sims, misses, hits := metricSum(t, cl, "qlecd_simulations_total"),
		metricSum(t, cl, "qlecd_cache_misses_total"), metricSum(t, cl, "qlecd_cache_hits_total")
	if sims != 1 || misses != 1 || hits != 0 {
		t.Fatalf("after first run: sims=%v misses=%v hits=%v, want 1/1/0", sims, misses, hits)
	}

	// Identical resubmission: immediately done, same hash, new job id,
	// no second simulation.
	j2, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.CacheHit || j2.State != service.StateDone {
		t.Fatalf("resubmission = %+v, want an instant cache-hit done job", j2)
	}
	if j2.Hash != j1.Hash {
		t.Fatalf("hash changed across identical submissions: %s vs %s", j1.Hash, j2.Hash)
	}
	if j2.ID == j1.ID {
		t.Fatal("resubmission reused the job id")
	}
	if sims := metricSum(t, cl, "qlecd_simulations_total"); sims != 1 {
		t.Fatalf("resubmission re-simulated: qlecd_simulations_total = %v", sims)
	}
	if hits := metricSum(t, cl, "qlecd_cache_hits_total"); hits != 1 {
		t.Fatalf("qlecd_cache_hits_total = %v, want 1", hits)
	}

	// A cache-hit job never had a live stream; its events endpoint still
	// yields the terminal state so clients can treat every job alike.
	events = collectEvents(t, cl, j2.ID)
	if len(events) != 1 || events[0].State != service.StateDone {
		t.Fatalf("cache-hit job events = %+v, want exactly one done state", events)
	}

	// An equivalent-but-not-identical request (config sweep lists differ
	// but KindOne ignores them) also hits the cache, via normalization.
	eq := req
	eq.Config.Lambdas = []float64{8, 4}
	eq.Config.Seeds = []uint64{7}
	j3, err := cl.Submit(ctx, eq)
	if err != nil {
		t.Fatal(err)
	}
	if !j3.CacheHit {
		t.Fatal("normalized-equivalent submission missed the cache")
	}
	_ = srv
}

// TestCancelRunningJob cancels a long real simulation mid-run via
// DELETE and checks it stops at a round boundary.
func TestCancelRunningJob(t *testing.T) {
	_, cl := newTestServer(t, service.Options{Workers: 1})
	ctx := context.Background()

	cfg := experiment.PaperConfig() // N=100: slow enough to catch mid-run
	cfg.Rounds = 50000
	cfg.Seeds = []uint64{1}
	cfg.Lambdas = []float64{4}
	cfg.Workers = 1
	j, err := cl.Submit(ctx, oneRequest(cfg))
	if err != nil {
		t.Fatal(err)
	}

	// Stream until the first round event proves the engine is inside the
	// run, then cancel.
	firstRound := make(chan struct{})
	var once sync.Once
	var events []service.Event
	var evErr error
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		sctx, scancel := context.WithTimeout(ctx, 30*time.Second)
		defer scancel()
		evErr = cl.Events(sctx, j.ID, func(e service.Event) bool {
			events = append(events, e)
			if e.Type == service.EventRound {
				once.Do(func() { close(firstRound) })
			}
			return true
		})
	}()
	select {
	case <-firstRound:
	case <-time.After(20 * time.Second):
		t.Fatal("no round event within 20s")
	}
	if _, err := cl.Cancel(ctx, j.ID); err != nil {
		t.Fatal(err)
	}
	fin, err := cl.Wait(ctx, j.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != service.StateCancelled {
		t.Fatalf("state after DELETE = %s, want cancelled", fin.State)
	}
	if !fin.CancelRequested {
		t.Fatal("cancelRequested not recorded")
	}
	<-streamDone
	if evErr != nil {
		t.Fatalf("event stream: %v", evErr)
	}
	last := events[len(events)-1]
	if last.Type != service.EventState || last.State != service.StateCancelled {
		t.Fatalf("last event = %+v, want cancelled state", last)
	}
	// Cancellation lands at a round boundary, long before the configured
	// horizon.
	roundEvents := 0
	for _, e := range events {
		if e.Type == service.EventRound {
			roundEvents++
		}
	}
	if roundEvents >= cfg.Rounds {
		t.Fatalf("saw %d round events; cancellation did not interrupt the run", roundEvents)
	}
	// DELETE is idempotent on terminal jobs.
	again, err := cl.Cancel(ctx, j.ID)
	if err != nil || again.State != service.StateCancelled {
		t.Fatalf("second DELETE = %+v, %v", again, err)
	}
	// No partial result was cached.
	if _, err := cl.Result(ctx, j.Hash); err == nil {
		t.Fatal("cancelled job left a cached result")
	}
}

// TestCancelQueuedJob cancels a job before any worker picks it up.
func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	_, cl := newTestServer(t, service.Options{
		Workers: 1,
		Run: func(ctx context.Context, req service.Request, h experiment.Hooks) (*service.ResultEnvelope, error) {
			started <- struct{}{}
			select {
			case <-release:
				return &service.ResultEnvelope{Kind: req.Kind}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	defer close(release)
	ctx := context.Background()

	// Occupy the only worker, then queue a second distinct job.
	if _, err := cl.Submit(ctx, oneRequest(tinyCfg())); err != nil {
		t.Fatal(err)
	}
	<-started
	cfg2 := tinyCfg()
	cfg2.Rounds = 3
	j2, err := cl.Submit(ctx, oneRequest(cfg2))
	if err != nil {
		t.Fatal(err)
	}
	if j2.State != service.StateQueued {
		t.Fatalf("second job state = %s, want queued", j2.State)
	}
	got, err := cl.Cancel(ctx, j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != service.StateCancelled {
		t.Fatalf("cancelled queued job state = %s", got.State)
	}
	events := collectEvents(t, cl, j2.ID)
	if len(events) == 0 || events[len(events)-1].State != service.StateCancelled {
		t.Fatalf("queued-cancel events = %+v", events)
	}
	// The identity is free again: resubmitting must create a NEW job,
	// not coalesce onto the cancelled one.
	j3, err := cl.Submit(ctx, oneRequest(cfg2))
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID == j2.ID || j3.State.Terminal() {
		t.Fatalf("resubmission after cancel = %+v", j3)
	}
}

// TestTransientRetry: a job that fails once with ErrTransient re-enters
// the queue and succeeds on the second attempt.
func TestTransientRetry(t *testing.T) {
	var calls atomic.Int32
	_, cl := newTestServer(t, service.Options{
		Workers:    1,
		MaxRetries: 1,
		Run: func(ctx context.Context, req service.Request, h experiment.Hooks) (*service.ResultEnvelope, error) {
			if calls.Add(1) == 1 {
				return nil, fmt.Errorf("simulated blip: %w", service.ErrTransient)
			}
			return &service.ResultEnvelope{Kind: req.Kind}, nil
		},
	})
	ctx := context.Background()
	j, err := cl.Submit(ctx, oneRequest(tinyCfg()))
	if err != nil {
		t.Fatal(err)
	}
	fin, err := cl.Wait(ctx, j.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != service.StateDone {
		t.Fatalf("state = %s (error %q), want done after retry", fin.State, fin.Error)
	}
	if fin.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", fin.Attempts)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("run function called %d times, want 2", got)
	}
	if sims := metricSum(t, cl, "qlecd_simulations_total"); sims != 1 {
		t.Fatalf("qlecd_simulations_total = %v, want 1 (failed attempts don't count)", sims)
	}
}

// TestRetryBudgetExhausted: with retries disabled, one transient
// failure is terminal.
func TestRetryBudgetExhausted(t *testing.T) {
	_, cl := newTestServer(t, service.Options{
		Workers:    1,
		MaxRetries: -1, // explicit zero retries
		Run: func(ctx context.Context, req service.Request, h experiment.Hooks) (*service.ResultEnvelope, error) {
			return nil, fmt.Errorf("always down: %w", service.ErrTransient)
		},
	})
	ctx := context.Background()
	j, err := cl.Submit(ctx, oneRequest(tinyCfg()))
	if err != nil {
		t.Fatal(err)
	}
	fin, err := cl.Wait(ctx, j.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != service.StateFailed || !strings.Contains(fin.Error, "always down") {
		t.Fatalf("job = %+v, want failed with the run error", fin)
	}
	if fin.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", fin.Attempts)
	}
}

// TestDrainWaitsForInFlight: Drain lets the running job finish, refuses
// new submissions, and flips /readyz to 503 while /healthz stays 200
// (liveness vs readiness).
func TestDrainWaitsForInFlight(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	srv, cl := newTestServer(t, service.Options{
		Workers: 1,
		Run: func(ctx context.Context, req service.Request, h experiment.Hooks) (*service.ResultEnvelope, error) {
			close(started)
			select {
			case <-release:
				return &service.ResultEnvelope{Kind: req.Kind}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	ctx := context.Background()
	j, err := cl.Submit(ctx, oneRequest(tinyCfg()))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(context.Background()) }()

	// Draining is observable: readiness 503, submissions refused — but
	// liveness stays green (the process is healthy, just finishing up).
	waitFor(t, func() bool {
		var apiErr *client.APIError
		err := cl.Ready(ctx)
		return errors.As(err, &apiErr) && apiErr.Status == http.StatusServiceUnavailable
	}, "readyz did not report draining")
	if err := cl.Health(ctx); err != nil {
		t.Fatalf("healthz during drain = %v, want 200 (pure liveness)", err)
	}
	_, err = cl.Submit(ctx, oneRequest(func() experiment.Config { c := tinyCfg(); c.Rounds = 7; return c }()))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain = %v, want 503", err)
	}

	close(release)
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	fin, err := cl.Job(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != service.StateDone {
		t.Fatalf("in-flight job after graceful drain = %s, want done", fin.State)
	}
}

// TestQueueLimit: submissions beyond the queue bound get 503 and do not
// create jobs.
func TestQueueLimit(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	_, cl := newTestServer(t, service.Options{
		Workers:    1,
		QueueLimit: 1,
		Run: func(ctx context.Context, req service.Request, h experiment.Hooks) (*service.ResultEnvelope, error) {
			started <- struct{}{}
			<-release
			return &service.ResultEnvelope{Kind: req.Kind}, nil
		},
	})
	defer close(release)
	ctx := context.Background()

	mkReq := func(rounds int) service.Request {
		c := tinyCfg()
		c.Rounds = rounds
		return oneRequest(c)
	}
	if _, err := cl.Submit(ctx, mkReq(2)); err != nil {
		t.Fatal(err)
	}
	<-started // worker busy; queue empty
	if _, err := cl.Submit(ctx, mkReq(3)); err != nil {
		t.Fatal(err) // fills the single queue slot
	}
	_, err := cl.Submit(ctx, mkReq(4))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("over-limit submission = %v, want 503", err)
	}
}

// TestHTTPValidationAndNotFound covers the 4xx surface.
func TestHTTPValidationAndNotFound(t *testing.T) {
	_, cl := newTestServer(t, service.Options{Workers: 1})
	ctx := context.Background()

	wantStatus := func(err error, status int, what string) {
		t.Helper()
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != status {
			t.Fatalf("%s: got %v, want HTTP %d", what, err, status)
		}
	}

	bad := oneRequest(tinyCfg())
	bad.Protocols = []experiment.ProtocolID{"warp-drive"}
	_, err := cl.Submit(ctx, bad)
	wantStatus(err, http.StatusBadRequest, "unknown protocol")

	bad = oneRequest(tinyCfg())
	bad.Kind = "interpretive-dance"
	_, err = cl.Submit(ctx, bad)
	wantStatus(err, http.StatusBadRequest, "unknown kind")

	bad = oneRequest(tinyCfg())
	bad.Config.K = 0
	_, err = cl.Submit(ctx, bad)
	wantStatus(err, http.StatusBadRequest, "invalid config")

	_, err = cl.Job(ctx, "j99999999")
	wantStatus(err, http.StatusNotFound, "unknown job")
	_, err = cl.Cancel(ctx, "j99999999")
	wantStatus(err, http.StatusNotFound, "cancel unknown job")
	_, err = cl.Result(ctx, strings.Repeat("ab", 32))
	wantStatus(err, http.StatusNotFound, "unknown result")
	err = cl.Events(ctx, "j99999999", func(service.Event) bool { return true })
	wantStatus(err, http.StatusNotFound, "events of unknown job")
}

// TestRestartServesCachedResults: results persist; a fresh process over
// the same data dir answers identical submissions from disk without
// simulating.
func TestRestartServesCachedResults(t *testing.T) {
	dir := t.TempDir()
	req := oneRequest(tinyCfg())
	ctx := context.Background()

	srv1, err := service.New(service.Options{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	cl1 := client.New(ts1.URL, client.WithRetries(0))
	j1, err := cl1.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl1.Wait(ctx, j1.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	srv1.Close()
	ts1.Close()

	// Second process: any simulation here is a test failure.
	var calls atomic.Int32
	srv2, err := service.New(service.Options{
		DataDir: dir,
		Workers: 1,
		Run: func(ctx context.Context, req service.Request, h experiment.Hooks) (*service.ResultEnvelope, error) {
			calls.Add(1)
			return nil, errors.New("must not simulate")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() { srv2.Close(); ts2.Close() })
	cl2 := client.New(ts2.URL, client.WithRetries(0))

	// The job history survived the restart.
	jobs := getList[*service.Job](t, cl2, "/v1/jobs")
	if len(jobs) != 1 || jobs[0].ID != j1.ID || jobs[0].State != service.StateDone {
		t.Fatalf("reloaded jobs = %+v", jobs)
	}

	j2, err := cl2.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.CacheHit || j2.State != service.StateDone || j2.Hash != j1.Hash {
		t.Fatalf("post-restart resubmission = %+v, want a cache hit on %s", j2, j1.Hash)
	}
	if calls.Load() != 0 {
		t.Fatal("restart re-simulated a cached experiment")
	}
	env, err := cl2.Result(ctx, j1.Hash)
	if err != nil || env.One == nil {
		t.Fatalf("result after restart: %+v, %v", env, err)
	}
	hits, sims := metricSum(t, cl2, "qlecd_cache_hits_total"), metricSum(t, cl2, "qlecd_simulations_total")
	if hits != 1 || sims != 0 {
		t.Fatalf("post-restart metrics: hits=%v sims=%v, want 1/0", hits, sims)
	}
}

// TestRestartResumesInterruptedJob: a job interrupted by an expired
// drain persists as queued and runs to completion on the next start.
func TestRestartResumesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	started := make(chan struct{})
	srv1, err := service.New(service.Options{
		DataDir: dir,
		Workers: 1,
		Run: func(ctx context.Context, req service.Request, h experiment.Hooks) (*service.ResultEnvelope, error) {
			close(started)
			<-ctx.Done() // hold the job until shutdown interrupts it
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	cl1 := client.New(ts1.URL, client.WithRetries(0))
	j, err := cl1.Submit(ctx, oneRequest(tinyCfg()))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// A drain deadline in the past interrupts immediately — the shape of
	// an operator SIGTERM whose -drain-timeout expires.
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := srv1.Drain(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain = %v, want deadline exceeded", err)
	}
	ts1.Close()
	// Strip the trace ID, as on a record persisted before jobs carried
	// one: the resumed run must mint a trace and still serve it.
	path := filepath.Join(dir, "jobs.jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	for i, line := range lines {
		var rec map[string]any
		if line == "" || json.Unmarshal([]byte(line), &rec) != nil || rec["id"] != j.ID {
			continue
		}
		delete(rec, "traceId")
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(b) + "\n"
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	// The next process reloads the interrupted job as queued and
	// executes it (this time with the real engine).
	srv2, err := service.New(service.Options{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() { srv2.Close(); ts2.Close() })
	cl2 := client.New(ts2.URL, client.WithRetries(0))

	fin, err := cl2.Wait(ctx, j.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != service.StateDone {
		t.Fatalf("resumed job = %s (error %q), want done", fin.State, fin.Error)
	}
	if fin.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (the interrupted attempt doesn't count)", fin.Attempts)
	}
	if _, err := cl2.Result(ctx, fin.Hash); err != nil {
		t.Fatalf("result after resume: %v", err)
	}
	if fin.TraceID == "" {
		t.Fatal("resumed pre-trace job has no trace ID")
	}
	resp, err := http.Get(ts2.URL + "/v1/jobs/" + j.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace of resumed pre-trace job = %d, want 200", resp.StatusCode)
	}
}

// TestInflightCoalescing: submitting an identity that is already
// running returns the existing job instead of queueing a duplicate.
func TestInflightCoalescing(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	_, cl := newTestServer(t, service.Options{
		Workers: 1,
		Run: func(ctx context.Context, req service.Request, h experiment.Hooks) (*service.ResultEnvelope, error) {
			close(started)
			<-release
			return &service.ResultEnvelope{Kind: req.Kind}, nil
		},
	})
	ctx := context.Background()
	req := oneRequest(tinyCfg())
	j1, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j2, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID != j1.ID {
		t.Fatalf("duplicate submission created job %s, want coalescing onto %s", j2.ID, j1.ID)
	}
	if hits := metricSum(t, cl, "qlecd_cache_hits_total"); hits != 1 {
		t.Fatalf("coalesced submission not counted as a hit: %v", hits)
	}
	close(release)
	if _, err := cl.Wait(ctx, j1.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until true or a 10s deadline.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}
