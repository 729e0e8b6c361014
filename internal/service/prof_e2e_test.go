package service_test

// Profiling end-to-end tests: the CPU-profile labels every execution
// runs under, the scrape-time runtime gauges and /debug/pprof.

import (
	"bytes"
	"context"
	"net/http"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"qlec/internal/experiment"
	"qlec/internal/obs"
	"qlec/internal/service"
)

// TestRunLabels: every Options.Run call carries the profile labels a
// CPU profile splits on. A direct run is labelled with its request
// kind, a pooled sweep cell with kind=cell, an audit replay with
// kind=audit; the first two also carry their job's trace ID.
func TestRunLabels(t *testing.T) {
	type labels struct{ kind, protocol, trace string }
	var (
		mu   sync.Mutex
		seen = map[service.JobKind][]labels{}
	)
	label := func(ctx context.Context, key string) string {
		v, _ := pprof.Label(ctx, key)
		return v
	}
	_, cl := newTestServer(t, service.Options{Workers: 1,
		Run: func(ctx context.Context, req service.Request, h experiment.Hooks) (*service.ResultEnvelope, error) {
			mu.Lock()
			seen[req.Kind] = append(seen[req.Kind], labels{label(ctx, "kind"), label(ctx, "protocol"), label(ctx, "trace")})
			mu.Unlock()
			return service.Execute(ctx, req, h)
		}})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	run := func(req service.Request) *service.Job {
		t.Helper()
		j, err := cl.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		done, err := cl.Wait(ctx, j.ID, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if done.State != service.StateDone || done.TraceID == "" {
			t.Fatalf("job %s finished %s with trace %q (error %q), want done with a trace", j.ID, done.State, done.TraceID, done.Error)
		}
		return done
	}

	one := run(oneRequest(tinyCfg()))
	sweep := run(service.Request{Kind: service.KindFig3, Config: tinyCfg(),
		Protocols: []experiment.ProtocolID{experiment.QLEC}})
	httpGet(t, cl.BaseURL()+"/v1/jobs/"+one.ID+"/audit")

	mu.Lock()
	defer mu.Unlock()
	qlec := string(experiment.QLEC)
	// The job's run, then its audit replay.
	runs := seen[service.KindOne]
	if len(runs) != 2 || runs[0] != (labels{"one", qlec, one.TraceID}) ||
		runs[1].kind != "audit" || runs[1].protocol != qlec {
		t.Errorf("one-job and replay labels = %+v, want kind=one protocol=%s trace=%s, then kind=audit protocol=%s",
			runs, qlec, one.TraceID, qlec)
	}
	cells := seen[service.KindCell]
	if len(cells) == 0 {
		t.Fatal("the sweep ran no cells")
	}
	for _, c := range cells {
		if c != (labels{"cell", qlec, sweep.TraceID}) {
			t.Errorf("cell labels = %+v, want kind=cell protocol=%s trace=%s", c, qlec, sweep.TraceID)
		}
	}
}

// testServerURL digs the base URL back out of the typed client (it is
// the only thing the helpers return that knows it).
func testServerURL(t *testing.T, cl interface{ BaseURL() string }) string {
	t.Helper()
	return cl.BaseURL()
}

// TestRuntimeGaugesAndProfiling: a default server serves the
// qlecd_runtime_* gauges on /metrics, read at scrape time; the retired
// runtime-trend, profile-artifact and metrics-federation routes are gone;
// profiles come from /debug/pprof, which only Options.Pprof mounts.
func TestRuntimeGaugesAndProfiling(t *testing.T) {
	_, cl := newTestServer(t, service.Options{})
	base := testServerURL(t, cl)
	exp, err := obs.ParseExposition(bytes.NewReader(httpGet(t, base+"/metrics")))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"qlecd_runtime_heap_live_bytes", "qlecd_runtime_heap_goal_bytes", "qlecd_runtime_goroutines"} {
		f := exp.Family(name)
		if f == nil || len(f.Samples) != 1 || f.Samples[0].Value <= 0 {
			t.Errorf("%s: want one positive sample, got %+v", name, f)
		}
	}
	if f := exp.Family("qlecd_runtime_gc_cpu_fraction"); f == nil || len(f.Samples) != 1 {
		t.Errorf("qlecd_runtime_gc_cpu_fraction: want one sample, got %+v", f)
	}
	status := func(url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, retired := range []string{"/v1/runtime", "/v1/profiles", "/metrics/federate"} {
		if code := status(base + retired); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", retired, code)
		}
	}
	if code := status(base + "/debug/pprof/heap"); code != http.StatusNotFound {
		t.Errorf("GET /debug/pprof/heap without Pprof = %d, want 404", code)
	}

	_, pcl := newTestServer(t, service.Options{Pprof: true})
	heap := httpGet(t, testServerURL(t, pcl)+"/debug/pprof/heap")
	if len(heap) < 2 || heap[0] != 0x1f || heap[1] != 0x8b {
		t.Errorf("/debug/pprof/heap with Pprof is not a gzipped profile (%d bytes)", len(heap))
	}
}
