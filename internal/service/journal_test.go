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

	"qlec/internal/fleet"
	"qlec/internal/service"
)

// stubRun answers every job at once with an empty envelope after
// publishing rounds round events.
func stubRun(rounds int, calls *atomic.Int64) service.RunFunc {
	return func(ctx context.Context, req service.Request, publish func(service.Event)) (*service.ResultEnvelope, error) {
		if calls != nil {
			calls.Add(1)
		}
		for r := 1; r <= rounds; r++ {
			publish(service.Event{Type: service.EventRound, Round: &service.RoundProgress{Round: r}})
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
// and batch directories; the journal appears with the first job.
func TestBootEmptyDataDirCreatesNoJournal(t *testing.T) {
	dir := t.TempDir()
	srv, cl := newTestServer(t, service.Options{DataDir: dir, Workers: 1, Run: stubRun(0, nil)})
	if got := dirNames(t, dir); len(got) != 2 || got[0] != "batches" || got[1] != "results" {
		t.Fatalf("fresh data dir holds %v, want [batches results]", got)
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

// TestReloadFoldsLegacyJobFiles: a data dir in the one-file-per-job
// layout reloads with its queued and interrupted jobs requeued and its
// done job served from disk, then holds the jobs in the journal alone.
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
	if err := os.Mkdir(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, j := range legacy {
		// Indented, so the fold must compact each record to one line.
		b, err := json.MarshalIndent(j, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "jobs", j.ID+".json"), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}

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
	if _, err := os.Stat(filepath.Join(dir, "jobs")); !os.IsNotExist(err) {
		t.Fatalf("jobs/ still present after the fold (stat err %v)", err)
	}
	jobs, warns, err := st.LoadJobs()
	if err != nil || len(warns) != 0 {
		t.Fatalf("journal reload: %v, warnings %v", err, warns)
	}
	if len(jobs) != 4 {
		t.Fatalf("journal holds %d jobs, want 4", len(jobs))
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

// TestFinishedHubsBounded: finished jobs keep their event history only
// while they are among the last MaxFinishedHubs to finish. An older one
// streams its terminal state alone, resources included.
func TestFinishedHubsBounded(t *testing.T) {
	srv, cl := newTestServer(t, service.Options{Workers: 2, QueueLimit: 4 * service.MaxFinishedHubs, Run: stubRun(3, nil)})
	ctx := context.Background()
	n := service.MaxFinishedHubs + 8
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
	if live, finished := service.HeldHubs(srv); live != 0 || finished != service.MaxFinishedHubs {
		t.Fatalf("held hubs: %d live, %d finished; want 0 live and %d finished", live, finished, service.MaxFinishedHubs)
	}

	newest := collectEvents(t, cl, ids[n-1])
	rounds := 0
	for _, e := range newest {
		if e.Type == service.EventRound {
			rounds++
		}
	}
	last := newest[len(newest)-1]
	if rounds != 3 || last.State != service.StateDone || last.Resources == nil {
		t.Fatalf("newest job replayed %d round events, final %+v; want 3 rounds and done with resources", rounds, last)
	}

	oldest := collectEvents(t, cl, ids[0])
	if len(oldest) != 1 || oldest[0].Type != service.EventState || oldest[0].State != service.StateDone || oldest[0].Resources == nil {
		t.Fatalf("oldest job streamed %+v; want only its done state with resources", oldest)
	}
}
