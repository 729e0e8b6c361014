package service_test

// Batch API tests: POST /v1/batches end to end against the local cell
// pool (fleet mode off — the scheduler is the same code either way),
// covering cross-config dedupe, the aggregate SSE stream, validation,
// and crash-resume.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qlec/internal/experiment"
	"qlec/internal/service"
	"qlec/internal/service/client"
)

func batchRequest(rounds int) service.Request {
	cfg := tinyCfg()
	cfg.Rounds = rounds
	return oneRequest(cfg)
}

// TestBatchDedupeAndEvents: a batch with duplicate configs executes
// each distinct config once, answers already-cached configs without
// scheduling anything, and rolls the whole run up on one SSE stream.
func TestBatchDedupeAndEvents(t *testing.T) {
	var runs atomic.Int64
	_, cl := newTestServer(t, service.Options{
		Workers: 2,
		Run: func(ctx context.Context, req service.Request, h experiment.Hooks) (*service.ResultEnvelope, error) {
			runs.Add(1)
			return &service.ResultEnvelope{Kind: req.Kind}, nil
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Pre-compute one config through the job API so the batch sees it as
	// a cache hit.
	cached := batchRequest(9)
	j, err := cl.Submit(ctx, cached)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, j.ID, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("pre-computation ran %d times, want 1", got)
	}

	// A, A, B, cached: four configs, two of them fresh work.
	b, err := cl.SubmitBatch(ctx, []service.Request{
		batchRequest(3), batchRequest(3), batchRequest(5), cached,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Configs) != 4 || b.State != service.StateRunning {
		t.Fatalf("submitted batch = %+v, want 4 running configs", b)
	}

	var events []service.Event
	if err := cl.BatchEvents(ctx, b.ID, func(e service.Event) bool {
		events = append(events, e)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	last := events[len(events)-1]
	if last.Type != service.EventState || last.State != service.StateDone {
		t.Fatalf("last batch event = %+v, want terminal done", last)
	}
	configEvents := 0
	for _, e := range events {
		if e.Type == service.EventConfig {
			configEvents++
			if e.Config.State != service.StateDone {
				t.Errorf("config %d finished %s (error %q), want done", e.Config.Index, e.Config.State, e.Config.Error)
			}
		}
	}
	if configEvents != 4 {
		t.Errorf("stream carried %d config events, want 4", configEvents)
	}

	fin, err := cl.Batch(ctx, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != service.StateDone || fin.ConfigsDone != 4 || fin.Failed != 0 {
		t.Fatalf("batch = %+v, want done 4/0", fin)
	}
	if !fin.Configs[3].CacheHit {
		t.Error("pre-computed config not marked as a cache hit")
	}
	// The duplicate pair shared one cell; the cached config scheduled
	// nothing. Total fresh executions: A once + B once.
	if got := runs.Load(); got != 3 {
		t.Errorf("simulations ran %d times, want 3 (dedupe failed)", got)
	}

	list := getList[*service.Batch](t, cl, "/v1/batches")
	if len(list) != 1 || list[0].ID != b.ID {
		t.Fatalf("batch list = %+v, want exactly %s", list, b.ID)
	}
}

// TestBatchValidation: one invalid config rejects the whole batch with
// its index; an empty batch is rejected too.
func TestBatchValidation(t *testing.T) {
	_, cl := newTestServer(t, service.Options{Workers: 1})
	ctx := context.Background()

	bad := batchRequest(3)
	bad.Lambda = 0 // KindOne requires a positive lambda
	_, err := cl.SubmitBatch(ctx, []service.Request{batchRequest(2), bad})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("invalid batch = %v, want 400", err)
	}
	if !strings.Contains(apiErr.Message, "config 1") {
		t.Errorf("error %q does not name the offending config index", apiErr.Message)
	}

	_, err = cl.SubmitBatch(ctx, nil)
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("empty batch = %v, want 400", err)
	}
}

// TestBatchResume: a batch interrupted by shutdown persists as running
// and completes on the next start from the same data directory.
func TestBatchResume(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{}, 4)
	srv1, err := service.New(service.Options{
		DataDir: dir,
		Workers: 1,
		Run: func(ctx context.Context, req service.Request, h experiment.Hooks) (*service.ResultEnvelope, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done() // hold the cell until shutdown interrupts it
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	cl1 := client.New(ts1.URL, client.WithRetries(0))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	b, err := cl1.SubmitBatch(ctx, []service.Request{batchRequest(3), batchRequest(5)})
	if err != nil {
		t.Fatal(err)
	}
	<-started // an executor is holding a cell; the batch is mid-flight
	srv1.Close()
	ts1.Close()

	// Second process, same directory, working run function: the batch
	// must resume and finish.
	var runs atomic.Int64
	srv2, err := service.New(service.Options{
		DataDir: dir,
		Workers: 1,
		Run: func(ctx context.Context, req service.Request, h experiment.Hooks) (*service.ResultEnvelope, error) {
			runs.Add(1)
			return &service.ResultEnvelope{Kind: req.Kind}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		srv2.Close()
		ts2.Close()
	})
	cl2 := client.New(ts2.URL, client.WithRetries(0))

	waitFor(t, func() bool {
		fin, err := cl2.Batch(ctx, b.ID)
		return err == nil && fin.State == service.StateDone
	}, "interrupted batch never resumed to completion")
	fin, err := cl2.Batch(ctx, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.ConfigsDone != 2 || fin.Failed != 0 {
		t.Fatalf("resumed batch = %+v, want 2 configs done, 0 failed", fin)
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("resume ran %d simulations, want 2 (nothing finished pre-restart)", got)
	}
}

// startAt boots a server over dir with run, as one process of a
// restart test; stop shuts the process down.
func startAt(t *testing.T, dir string, run service.RunFunc) (cl *client.Client, url string, stop func()) {
	t.Helper()
	srv, err := service.New(service.Options{DataDir: dir, Workers: 1, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	stop = func() {
		srv.Close()
		ts.Close()
	}
	t.Cleanup(stop)
	return client.New(ts.URL, client.WithRetries(0)), ts.URL, stop
}

// TestBatchJournalAndRestart: a batch that runs to completion appends
// two journal lines, the submit record with its requests and the
// terminal record without them, and after a restart GET
// /v1/batches/{id} answers byte for byte what it answered before.
func TestBatchJournalAndRestart(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl1, url1, stop1 := startAt(t, dir, stubRun(0, nil))
	b, err := cl1.SubmitBatch(ctx, []service.Request{batchRequest(3), batchRequest(5)})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		fin, err := cl1.Batch(ctx, b.ID)
		return err == nil && fin.State == service.StateDone
	}, "batch never finished")
	get := func(url string) string {
		resp, err := http.Get(url + "/v1/batches/" + b.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET batch: %d %s, %v", resp.StatusCode, body, err)
		}
		return string(body)
	}
	before := get(url1)
	stop1()

	raw, err := os.ReadFile(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var lines []map[string]json.RawMessage
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		var rec map[string]json.RawMessage
		if line == "" {
			continue
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if string(rec["id"]) == `"`+b.ID+`"` {
			lines = append(lines, rec)
		}
	}
	if len(lines) != 2 || lines[0]["requests"] == nil || lines[1]["requests"] != nil || string(lines[1]["state"]) != `"done"` {
		t.Fatalf("journal holds %d lines of %s; want the submit record with requests, then the done record without", len(lines), b.ID)
	}

	_, url2, _ := startAt(t, dir, stubRun(0, nil))
	if after := get(url2); after != before {
		t.Fatalf("finished batch after a restart:\n%s\nbefore:\n%s", after, before)
	}
}

// TestBatchResumeAnswersFinishedConfigsFromStore: a batch interrupted
// after one config finished resumes from its submit record. The
// finished config answers from the result store (a cache hit, no new
// simulation), and only the interrupted one runs again.
func TestBatchResumeAnswersFinishedConfigsFromStore(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl1, _, stop1 := startAt(t, dir, func(ctx context.Context, req service.Request, h experiment.Hooks) (*service.ResultEnvelope, error) {
		if req.Config.Rounds == 5 {
			<-ctx.Done() // hold the second config until shutdown
			return nil, ctx.Err()
		}
		return &service.ResultEnvelope{Kind: req.Kind}, nil
	})
	b, err := cl1.SubmitBatch(ctx, []service.Request{batchRequest(3), batchRequest(5)})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		fin, err := cl1.Batch(ctx, b.ID)
		return err == nil && fin.ConfigsDone == 1
	}, "first config never finished")
	stop1()

	var runs atomic.Int64
	cl2, _, _ := startAt(t, dir, stubRun(0, &runs))
	waitFor(t, func() bool {
		fin, err := cl2.Batch(ctx, b.ID)
		return err == nil && fin.State == service.StateDone
	}, "interrupted batch never resumed to completion")
	fin, err := cl2.Batch(ctx, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.ConfigsDone != 2 || fin.Failed != 0 || !fin.Configs[0].CacheHit || fin.Configs[1].CacheHit {
		t.Fatalf("resumed batch = %+v, want 2 done, the first a cache hit", fin)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("resume ran %d simulations, want 1 (the interrupted config)", got)
	}
}
