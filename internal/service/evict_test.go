package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"qlec/internal/experiment"
	"qlec/internal/service"
	"qlec/internal/service/client"
)

// rawGet returns the status and body bytes of one request to a daemon.
func rawGet(t *testing.T, method, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// getList decodes the JSON array a daemon serves at path: the job,
// batch and protocol listings.
func getList[T any](t *testing.T, cl *client.Client, path string) []T {
	t.Helper()
	var out []T
	if err := json.Unmarshal(httpGet(t, cl.BaseURL()+path), &out); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return out
}

// fillFinished pushes every earlier finished record out of memory:
// MaxFinishedRecords submissions of req, answered as cache hits once
// its result exists.
func fillFinished(t *testing.T, cl *client.Client, req service.Request) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < service.MaxFinishedRecords; i++ {
		j, err := cl.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Wait(ctx, j.ID, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEvictedRecordsByteIdentical: a finished job or batch answers with
// the same bytes while it is in memory, after it has left memory for the
// journal, and after a restart: GET of the record, its /events fallback
// event, the job and batch lists, and a finished job's audit artifact.
// DELETE of an evicted job answers its record, as for any finished job.
func TestEvictedRecordsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	opt := service.Options{DataDir: dir, Workers: 2, TraceHistory: 4 * service.MaxFinishedRecords}
	srv, cl := newTestServer(t, opt)
	ctx := context.Background()

	_, first, err := cl.RunOne(ctx, oneRequest(tinyCfg()), nil)
	if err != nil {
		t.Fatal(err)
	}
	ran := first.ID
	hit, err := cl.Submit(ctx, oneRequest(tinyCfg()))
	if err != nil || !hit.CacheHit {
		t.Fatalf("resubmission %+v, %v; want a cache hit", hit, err)
	}
	b, err := cl.SubmitBatch(ctx, []service.Request{batchRequest(1), oneRequest(tinyCfg())})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		fin, err := cl.Batch(ctx, b.ID)
		return err == nil && fin.State == service.StateDone
	}, "batch never finished")

	// Each answer is read with the base URL of the daemon serving it.
	paths := []string{
		"/v1/jobs/" + ran, "/v1/jobs/" + hit.ID, "/v1/batches/" + b.ID,
		"/v1/jobs/" + hit.ID + "/events", "/v1/jobs/" + ran + "/audit",
		"/v1/batches",
	}
	read := func(base string) map[string][]byte {
		out := make(map[string][]byte)
		for _, p := range paths {
			status, body := rawGet(t, http.MethodGet, base+p)
			if status != http.StatusOK {
				t.Fatalf("GET %s = %d: %s", p, status, body)
			}
			out[p] = body
		}
		return out
	}
	compare := func(when string, want, got map[string][]byte) {
		t.Helper()
		for _, p := range paths {
			if !bytes.Equal(got[p], want[p]) {
				t.Errorf("%s: GET %s answers\n%s\nwant\n%s", when, p, got[p], want[p])
			}
		}
	}
	held := read(cl.BaseURL())
	_, heldList := rawGet(t, http.MethodGet, cl.BaseURL()+"/v1/jobs")

	fillFinished(t, cl, oneRequest(tinyCfg()))
	if live, finished := service.HeldRecords(srv); live != 0 || finished != service.MaxFinishedRecords {
		t.Fatalf("held records: %d live, %d finished; want 0 and %d", live, finished, service.MaxFinishedRecords)
	}
	evicted := read(cl.BaseURL())
	compare("after eviction", held, evicted)
	_, evictedList := rawGet(t, http.MethodGet, cl.BaseURL()+"/v1/jobs")
	// The list grew by the filler jobs; what it held before is its
	// prefix, byte for byte.
	if prefix := bytes.TrimSuffix(heldList, []byte("\n]\n")); !bytes.HasPrefix(evictedList, prefix) {
		t.Errorf("job list after eviction does not extend the list before it:\n%s\nwant a prefix of\n%s", evictedList, heldList)
	}
	status, deleted := rawGet(t, http.MethodDelete, cl.BaseURL()+"/v1/jobs/"+ran)
	if status != http.StatusOK || !bytes.Equal(deleted, held["/v1/jobs/"+ran]) {
		t.Errorf("DELETE of an evicted job = %d\n%s\nwant 200 and its record", status, deleted)
	}
	var fallback service.Event
	if err := cl.Events(ctx, ran, func(e service.Event) bool { fallback = e; return true }); err != nil {
		t.Fatal(err)
	}
	if status, _ := rawGet(t, http.MethodGet, cl.BaseURL()+"/v1/jobs/"+ran+"/trace"); status != http.StatusOK {
		t.Errorf("trace of an evicted job = %d, want 200", status)
	}
	_, evictedEvents := rawGet(t, http.MethodGet, cl.BaseURL()+"/v1/jobs/"+ran+"/events")
	srv.Close()

	srv2, cl2 := newTestServer(t, opt)
	if live, finished := service.HeldRecords(srv2); live != 0 || finished != service.MaxFinishedRecords {
		t.Fatalf("after restart held records: %d live, %d finished; want 0 and %d", live, finished, service.MaxFinishedRecords)
	}
	compare("after restart", held, read(cl2.BaseURL()))
	if _, list := rawGet(t, http.MethodGet, cl2.BaseURL()+"/v1/jobs"); !bytes.Equal(list, evictedList) {
		t.Errorf("job list after restart differs from before it:\n%s\nwant\n%s", list, evictedList)
	}
	if _, events := rawGet(t, http.MethodGet, cl2.BaseURL()+"/v1/jobs/"+ran+"/events"); !bytes.Equal(events, evictedEvents) {
		t.Errorf("evicted job's events after restart\n%s\nwant\n%s", events, evictedEvents)
	}
	if fallback.State != service.StateDone {
		t.Errorf("evicted job streamed %+v, want its done state", fallback)
	}
}

// TestEvictedRecordMemoryOnly404: without a data dir there is no
// journal, so MaxFinishedRecords is a retention limit: a job or batch
// past it answers 404 on every route, and leaves the lists.
func TestEvictedRecordMemoryOnly404(t *testing.T) {
	srv, cl := newTestServer(t, service.Options{Workers: 1, Run: stubRun(0, nil)})
	ctx := context.Background()
	j, err := cl.Submit(ctx, oneRequest(tinyCfg()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, j.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	b, err := cl.SubmitBatch(ctx, []service.Request{oneRequest(tinyCfg())})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		fin, err := cl.Batch(ctx, b.ID)
		return err == nil && fin.State == service.StateDone
	}, "batch never finished")
	fillFinished(t, cl, oneRequest(tinyCfg()))
	if live, finished := service.HeldRecords(srv); live != 0 || finished != service.MaxFinishedRecords {
		t.Fatalf("held records: %d live, %d finished; want 0 and %d", live, finished, service.MaxFinishedRecords)
	}
	for _, r := range []struct{ method, path string }{
		{"GET", "/v1/jobs/" + j.ID}, {"DELETE", "/v1/jobs/" + j.ID}, {"GET", "/v1/jobs/" + j.ID + "/events"},
		{"GET", "/v1/jobs/" + j.ID + "/trace"}, {"GET", "/v1/jobs/" + j.ID + "/audit"},
		{"GET", "/v1/batches/" + b.ID}, {"GET", "/v1/batches/" + b.ID + "/events"}, {"GET", "/v1/batches/" + b.ID + "/trace"},
	} {
		if status, body := rawGet(t, r.method, cl.BaseURL()+r.path); status != http.StatusNotFound {
			t.Errorf("%s %s = %d (%s), want 404", r.method, r.path, status, bytes.TrimSpace(body))
		}
	}
	jobs := getList[*service.Job](t, cl, "/v1/jobs")
	if len(jobs) != service.MaxFinishedRecords || jobs[0].ID == j.ID {
		t.Fatalf("job list holds %d jobs, first %v; want the %d retained ones", len(jobs), jobs[0].ID, service.MaxFinishedRecords)
	}
	if batches := getList[*service.Batch](t, cl, "/v1/batches"); len(batches) != 0 {
		t.Fatalf("batch list %v; want empty", batches)
	}
}

// jobGauges reads qlecd_jobs by state.
func jobGauges(t *testing.T, cl *client.Client) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, s := range scrapeMetrics(t, cl).Family("qlecd_jobs").Samples {
		out[s.Label("state")] = s.Value
	}
	return out
}

// TestJobGaugesCountEvictedJobs: qlecd_jobs{state} counts every job the
// server knows, in memory or only in the journal, and reads the same
// before eviction, after it and after a restart.
func TestJobGaugesCountEvictedJobs(t *testing.T) {
	gate := make(chan struct{})
	run := func(ctx context.Context, req service.Request, h experiment.Hooks) (*service.ResultEnvelope, error) {
		switch req.Seed {
		case 1000:
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		case 2000:
			return nil, errors.New("boom")
		}
		return &service.ResultEnvelope{Kind: req.Kind}, nil
	}
	opt := service.Options{DataDir: t.TempDir(), Workers: 1, MaxRetries: -1, Run: run}
	srv, cl := newTestServer(t, opt)
	ctx := context.Background()
	submit := func(seed uint64) *service.Job {
		req := oneRequest(tinyCfg())
		req.Seed = seed
		j, err := cl.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	blocker := submit(1000)
	waitFor(t, func() bool {
		j, err := cl.Job(ctx, blocker.ID)
		return err == nil && j.State == service.StateRunning
	}, "blocker never ran")
	queued := submit(3000)
	if _, err := cl.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	if got := jobGauges(t, cl); got["running"] != 1 || got["cancelled"] != 1 || got["queued"] != 0 {
		t.Fatalf("gauges %v, want 1 running and 1 cancelled", got)
	}
	close(gate)
	for _, seed := range []uint64{2000, 1, 2, 3} {
		if _, err := cl.Wait(ctx, submit(seed).ID, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Wait(ctx, blocker.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"queued": 0, "running": 0, "done": 4, "failed": 1, "cancelled": 1}
	check := func(when string) {
		t.Helper()
		got := jobGauges(t, cl)
		jobs := getList[*service.Job](t, cl, "/v1/jobs")
		listed := map[string]float64{"queued": 0, "running": 0, "done": 0, "failed": 0, "cancelled": 0}
		for _, j := range jobs {
			listed[string(j.State)]++
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(listed) != fmt.Sprint(want) {
			t.Fatalf("%s: gauges %v, job list %v; want %v", when, got, listed, want)
		}
	}
	check("before eviction")

	req := oneRequest(tinyCfg())
	req.Seed = 1
	fillFinished(t, cl, req)
	want["done"] += service.MaxFinishedRecords
	if _, err := cl.Job(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	if live, finished := service.HeldRecords(srv); live != 0 || finished != service.MaxFinishedRecords {
		t.Fatalf("held records: %d live, %d finished; want 0 and %d", live, finished, service.MaxFinishedRecords)
	}
	check("after eviction")
	srv.Close()
	_, cl = newTestServer(t, opt)
	check("after restart")
}

// TestRecordMemoryBounded: the live heap does not grow with the jobs a
// server has finished. 10⁴ stub jobs grow it by under 2 MB, with a data
// dir (where the journal index adds 8 B a job) and without one; at one
// record of ≈1 KB per job the table alone would take ≈10 MB.
func TestRecordMemoryBounded(t *testing.T) {
	for _, mode := range []string{"data dir", "memory only"} {
		t.Run(mode, func(t *testing.T) {
			opt := service.Options{Workers: 2, QueueLimit: 1 << 14, Run: stubRun(0, nil)}
			if mode == "data dir" {
				opt.DataDir = t.TempDir()
			}
			srv, err := service.New(opt)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			h := srv.Handler()
			post := func(seed int) {
				req := oneRequest(tinyCfg())
				req.Seed = uint64(seed)
				body, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
				if w.Code >= 300 {
					t.Fatalf("submit %d: %d %s", seed, w.Code, w.Body)
				}
			}
			drain := func() {
				waitFor(t, func() bool { live, _ := service.HeldRecords(srv); return live == 0 }, "jobs never finished")
			}
			// Warm up: fill the finished store and every bounded table.
			for i := 1; i <= 2*service.MaxFinishedRecords; i++ {
				post(i)
			}
			drain()
			before := liveHeap()
			const n = 10_000
			for i := 1; i <= n; i++ {
				post(1_000_000 + i)
				if i%1000 == 0 {
					drain()
				}
			}
			drain()
			grew := liveHeap() - before
			t.Logf("%d jobs grew the live heap by %.2f MB", n, float64(grew)/(1<<20))
			if grew > 2<<20 {
				t.Fatalf("%d finished jobs grew the live heap by %d B, want under 2 MB", n, grew)
			}
		})
	}
}

func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
