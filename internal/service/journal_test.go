package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qlec/internal/experiment"
	"qlec/internal/fleet"
	"qlec/internal/service"
	"qlec/internal/sim"
)

// stubRun answers every job at once with an empty envelope after
// observing rounds rounds (when the run has an observer).
func stubRun(rounds int, calls *atomic.Int64) service.RunFunc {
	return func(ctx context.Context, req service.Request, h experiment.Hooks) (*service.ResultEnvelope, error) {
		if calls != nil {
			calls.Add(1)
		}
		for r := 1; r <= rounds && h.Observer != nil; r++ {
			h.Observer(sim.RoundSnapshot{Round: r})
		}
		return &service.ResultEnvelope{Kind: req.Kind}, nil
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// TestBootEmptyDataDirCreatesNoJournal: boot creates only the result
// directory; the journal appears with the first job.
func TestBootEmptyDataDirCreatesNoJournal(t *testing.T) {
	dir := t.TempDir()
	srv, cl := newTestServer(t, service.Options{DataDir: dir, Workers: 1, Run: stubRun(0, nil)})
	if got := dirNames(t, dir); len(got) != 1 || got[0] != "results" {
		t.Fatalf("fresh data dir holds %v, want [results]", got)
	}
	ctx := context.Background()
	j, err := cl.Submit(ctx, oneRequest(tinyCfg()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, j.ID, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := os.Stat(filepath.Join(dir, "jobs.jsonl")); err != nil {
		t.Fatalf("no journal after a job: %v", err)
	}
}

// TestReloadFoldsLegacyJobFiles: a data dir in the one-file-per-record
// layout reloads with its queued and interrupted jobs requeued and its
// done job and batch served from disk, then holds the records in the
// journal alone.
func TestReloadFoldsLegacyJobFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := service.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC()
	legacy := make([]*service.Job, 3)
	for i, state := range []service.JobState{service.StateDone, service.StateQueued, service.StateRunning} {
		req := oneRequest(tinyCfg())
		req.Seed = uint64(i + 1)
		req = req.Normalize()
		hash, err := req.Hash()
		if err != nil {
			t.Fatal(err)
		}
		legacy[i] = &service.Job{ID: fmt.Sprintf("j%08d", i+1), Hash: hash, State: state, Request: req, CreatedAt: now}
	}
	legacy[2].Attempts = 1
	if err := st.SaveResult(legacy[0].Hash, &service.ResultEnvelope{Kind: service.KindOne, Hash: legacy[0].Hash}); err != nil {
		t.Fatal(err)
	}
	batch := &service.Batch{ID: "b00000001", State: service.StateDone, CreatedAt: now, FinishedAt: now, ConfigsDone: 1,
		Configs: []service.BatchConfig{{Index: 0, Kind: service.KindOne, Hash: legacy[0].Hash, State: service.StateDone}}}
	writeLegacy := func(sub, id string, rec any) {
		// Indented, so the fold must compact each record to one line.
		b, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sub, id+".json"), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range legacy {
		writeLegacy("jobs", j.ID, j)
	}
	writeLegacy("batches", batch.ID, batch)

	var calls atomic.Int64
	srv, cl := newTestServer(t, service.Options{DataDir: dir, Workers: 1, Run: stubRun(0, &calls)})
	ctx := context.Background()
	for _, j := range legacy {
		fin, err := cl.Wait(ctx, j.ID, 2*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if fin.State != service.StateDone || fin.Hash != j.Hash {
			t.Fatalf("reloaded %s = %s (hash %s), want done (hash %s)", j.ID, fin.State, fin.Hash, j.Hash)
		}
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("ran %d jobs, want 2 (the queued and the interrupted one)", got)
	}
	if _, err := cl.Result(ctx, legacy[0].Hash); err != nil {
		t.Fatalf("result of the done job: %v", err)
	}
	if b, err := cl.Batch(ctx, batch.ID); err != nil || b.State != service.StateDone || len(b.Configs) != 1 {
		t.Fatalf("reloaded batch %+v, %v; want done with its config", b, err)
	}
	next, err := cl.Submit(ctx, oneRequest(tinyCfg()))
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "j00000004" {
		t.Fatalf("next job id %s, want j00000004", next.ID)
	}
	if _, err := cl.Wait(ctx, next.ID, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if got := dirNames(t, dir); len(got) != 2 || got[0] != "jobs.jsonl" || got[1] != "results" {
		t.Fatalf("data dir holds %v after the fold, want [jobs.jsonl results]", got)
	}
	jobs, batches, warns, err := st.LoadRecords()
	if err != nil || len(warns) != 0 {
		t.Fatalf("journal reload: %v, warnings %v", err, warns)
	}
	if len(jobs) != 4 || len(batches) != 1 || batches[0].State != service.StateDone {
		t.Fatalf("journal holds %d jobs and %v, want 4 jobs and the done batch", len(jobs), batches)
	}
	for _, j := range jobs {
		if j.State != service.StateDone {
			t.Fatalf("journal has %s %s, want done", j.ID, j.State)
		}
	}
}

// TestSubmitRejectsTrailingData: job, batch and fleet peer bodies must
// hold one JSON value; trailing whitespace is fine, anything else is a
// 400. The daemon runs with -self so the peer endpoints are live.
func TestSubmitRejectsTrailingData(t *testing.T) {
	n := startFleetNode(t, service.Options{Workers: 1, Run: stubRun(0, nil)}, service.FleetOptions{})

	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	hash := strings.Repeat("ab", 32)
	for _, ep := range []struct {
		method, path string
		body         []byte
	}{
		{"POST", "/v1/jobs", mustJSON(oneRequest(tinyCfg()))},
		{"POST", "/v1/batches", mustJSON(map[string]any{"requests": []service.Request{oneRequest(tinyCfg())}})},
		{"POST", "/v1/fleet/join", mustJSON(fleet.JoinRequest{Peer: n.url})},
		{"POST", "/v1/fleet/steal", mustJSON(fleet.StealRequest{Worker: "w"})},
		{"POST", "/v1/fleet/complete", mustJSON(fleet.CompleteRequest{Hash: hash, Error: "x"})},
		{"POST", "/v1/fleet/renew", mustJSON(fleet.RenewRequest{Worker: "w"})},
		{"PUT", "/v1/fleet/cache/" + hash, mustJSON(service.ResultEnvelope{Kind: service.KindOne})},
	} {
		for _, tc := range []struct {
			name   string
			suffix string
			ok     bool
		}{
			{"bare", "", true},
			{"whitespace", " \n\t\r\n", true},
			{"garbage", ` trailing-garbage {"x":`, false},
			{"open object", `{"x":`, false},
			{"second value", string(ep.body), false},
			{"null", " null", false},
		} {
			body := append(append([]byte(nil), ep.body...), tc.suffix...)
			req, err := http.NewRequest(ep.method, n.url+ep.path, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if ok := resp.StatusCode < 300; ok != tc.ok || (!ok && resp.StatusCode != http.StatusBadRequest) {
				t.Errorf("%s %s %s: status %d, want ok=%v (or 400)", ep.method, ep.path, tc.name, resp.StatusCode, tc.ok)
			}
		}
	}
}

// TestFinishedHubsBounded: finished jobs stay in memory, with their
// event history, only while they are among the last MaxFinishedRecords
// to finish. An older one is read back from the journal and streams its
// terminal state alone.
func TestFinishedHubsBounded(t *testing.T) {
	srv, cl := newTestServer(t, service.Options{DataDir: t.TempDir(), Workers: 2,
		QueueLimit: 4 * service.MaxFinishedRecords, Run: stubRun(3, nil)})
	ctx := context.Background()
	n := service.MaxFinishedRecords + 8
	ids := make([]string, n)
	for i := range ids {
		req := oneRequest(tinyCfg())
		req.Seed = uint64(i + 1)
		j, err := cl.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		// Wait for each job so finish order is submission order.
		if _, err := cl.Wait(ctx, j.ID, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID
	}
	if live, finished := service.HeldRecords(srv); live != 0 || finished != service.MaxFinishedRecords {
		t.Fatalf("held records: %d live, %d finished; want 0 live and %d finished", live, finished, service.MaxFinishedRecords)
	}

	newest := collectEvents(t, cl, ids[n-1])
	rounds := 0
	for _, e := range newest {
		if e.Type == service.EventRound {
			rounds++
		}
	}
	last := newest[len(newest)-1]
	if rounds != 3 || last.State != service.StateDone {
		t.Fatalf("newest job replayed %d round events, final %+v; want 3 rounds and done", rounds, last)
	}

	oldest := collectEvents(t, cl, ids[0])
	if len(oldest) != 1 || oldest[0].Type != service.EventState || oldest[0].State != service.StateDone {
		t.Fatalf("oldest job streamed %+v; want only its done state", oldest)
	}
}

// TestFinishedBatchHubRetires: a finished batch leaves the live table
// for the same bounded store of finished records that jobs use. Once
// MaxFinishedRecords later jobs have finished, it is read back from the
// journal: GET answers its record and /events streams its terminal
// state alone.
func TestFinishedBatchHubRetires(t *testing.T) {
	srv, cl := newTestServer(t, service.Options{DataDir: t.TempDir(), Workers: 2,
		QueueLimit: 4 * service.MaxFinishedRecords, Run: stubRun(0, nil)})
	ctx := context.Background()
	b, err := cl.SubmitBatch(ctx, []service.Request{batchRequest(3)})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		fin, err := cl.Batch(ctx, b.ID)
		return err == nil && fin.State == service.StateDone
	}, "batch never finished")
	if live, finished := service.HeldRecords(srv); live != 0 || finished != 1 {
		t.Fatalf("held records after the batch: %d live, %d finished; want 0 and 1", live, finished)
	}
	batchEvents := func() []service.Event {
		var events []service.Event
		if err := cl.BatchEvents(ctx, b.ID, func(e service.Event) bool {
			events = append(events, e)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return events
	}
	if events := batchEvents(); len(events) < 2 {
		t.Fatalf("recently finished batch replayed %+v; want its whole history", events)
	}

	for i := 0; i < service.MaxFinishedRecords; i++ {
		req := oneRequest(tinyCfg())
		req.Seed = uint64(i + 1)
		j, err := cl.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Wait(ctx, j.ID, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if live, finished := service.HeldRecords(srv); live != 0 || finished != service.MaxFinishedRecords {
		t.Fatalf("held records: %d live, %d finished; want 0 live and %d finished", live, finished, service.MaxFinishedRecords)
	}
	if fin, err := cl.Batch(ctx, b.ID); err != nil || fin.State != service.StateDone || len(fin.Configs) != 1 {
		t.Fatalf("evicted batch reads %+v, %v; want done with its config", fin, err)
	}
	events := batchEvents()
	if len(events) != 1 || events[0].Type != service.EventState || events[0].State != service.StateDone {
		t.Fatalf("aged-out batch streamed %+v; want only its done state", events)
	}
}
