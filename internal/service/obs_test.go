package service_test

// Observability end-to-end tests: Prometheus scrapes against a live
// server (including mid-job, asserting round-level sim gauges appear),
// exposition linting, Chrome-trace download and retention, request-ID
// correlation, and the /version endpoint.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qlec/internal/audit"
	"qlec/internal/experiment"
	"qlec/internal/metrics"
	"qlec/internal/obs"
	"qlec/internal/service"
	"qlec/internal/service/client"
	"qlec/internal/sim"
)

// newObsTestServer is newTestServer plus the raw base URL, which the
// scrape tests need for non-API endpoints.
func newObsTestServer(t *testing.T, opt service.Options) (*service.Server, *client.Client, string) {
	t.Helper()
	srv, err := service.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	cl := client.New(ts.URL, client.WithRetries(0), client.WithBackoff(time.Millisecond))
	return srv, cl, ts.URL
}

func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsScrapeDuringRunningJob is the acceptance-criteria scrape:
// while a job is mid-flight, /metrics must expose both the operational
// series and live per-round simulation gauges, and the whole exposition
// must lint clean. The stub RunFunc publishes sim telemetry through the
// same context plumbing Execute uses, then parks until released, so the
// scrape observes a guaranteed-running job without sleeps.
func TestMetricsScrapeDuringRunningJob(t *testing.T) {
	running := make(chan struct{})
	release := make(chan struct{})
	run := func(ctx context.Context, req service.Request, publish func(service.Event)) (*service.ResultEnvelope, error) {
		reg := obs.MetricsFromContext(ctx)
		if reg == nil {
			t.Error("worker context carries no metrics registry")
			return &service.ResultEnvelope{Kind: req.Kind}, nil
		}
		collector := obs.NewSimCollector(reg, "QLEC", 80, 2)
		snap := sim.RoundSnapshot{
			Round: 7, Alive: 15, EnergySoFar: 12,
			Stats: metrics.RoundStats{Heads: 2, Generated: 40, Delivered: 38},
			MeanQ: 0.3, Epsilon: 0.1, HasQ: true,
		}
		collector.Observe(snap)
		obs.TraceFromContext(ctx).Instant(obs.SpanFromContext(ctx), "stub round", "sim", nil)
		close(running)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &service.ResultEnvelope{Kind: req.Kind}, nil
	}
	_, cl, base := newObsTestServer(t, service.Options{Workers: 1, Run: run})

	j, err := cl.Submit(context.Background(), oneRequest(tinyCfg()))
	if err != nil {
		t.Fatal(err)
	}
	<-running

	out := scrape(t, base)
	for _, want := range []string{
		"qlecd_workers 1",
		"qlecd_workers_busy 1",
		`qlecd_jobs{state="running"} 1`,
		"qlecd_queue_depth 0",
		"qlecd_cache_misses_total 1",
		"# TYPE qlecd_job_queue_wait_seconds histogram",
		"# TYPE qlecd_http_requests_total counter",
		`qlec_sim_round{protocol="QLEC"} 7`,
		`qlec_sim_alive_nodes{protocol="QLEC"} 15`,
		`qlec_sim_residual_energy_joules{protocol="QLEC"} 68`,
		`qlec_sim_mean_q_value{protocol="QLEC"} 0.3`,
		`qlec_sim_epsilon{protocol="QLEC"} 0.1`,
		`qlec_sim_packets_delivered_total{protocol="QLEC"} 38`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("mid-job scrape missing %q", want)
		}
	}
	if err := obs.LintExposition(strings.NewReader(out)); err != nil {
		t.Errorf("mid-job exposition fails lint: %v", err)
	}

	close(release)
	if _, err := cl.Wait(context.Background(), j.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}

	out = scrape(t, base)
	for _, want := range []string{
		"qlecd_workers_busy 0",
		`qlecd_jobs_total{state="done"} 1`,
		"qlecd_simulations_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("post-job scrape missing %q", want)
		}
	}
}

// TestTraceEndpointRealJob runs a real simulation through Execute and
// downloads its Chrome trace: the job span and per-round spans must be
// present and the envelope must be the trace_event schema viewers load.
func TestTraceEndpointRealJob(t *testing.T) {
	_, cl, base := newObsTestServer(t, service.Options{Workers: 1})
	ctx := context.Background()
	j, err := cl.Submit(ctx, oneRequest(tinyCfg()))
	if err != nil {
		t.Fatal(err)
	}
	done, err := cl.Wait(ctx, j.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != service.StateDone {
		t.Fatalf("job %s, want done", done.State)
	}

	resp, err := http.Get(base + "/v1/jobs/" + j.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace = %d, want 200", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	var sawJob, sawRound bool
	for _, e := range doc.TraceEvents {
		if e.Phase == "X" && strings.HasPrefix(e.Name, "job ") {
			sawJob = true
		}
		if e.Phase == "X" && strings.HasPrefix(e.Name, "round ") {
			sawRound = true
		}
	}
	if !sawJob || !sawRound {
		t.Errorf("trace has job span=%v round spans=%v, want both (%d events)",
			sawJob, sawRound, len(doc.TraceEvents))
	}

	// The same scrape must now carry the real run's sim gauges.
	out := scrape(t, base)
	if !strings.Contains(out, `qlec_sim_round{protocol="QLEC"} 1`) {
		t.Errorf("post-run scrape missing final round gauge:\n%s", out)
	}
	if err := obs.LintExposition(strings.NewReader(out)); err != nil {
		t.Errorf("exposition fails lint: %v", err)
	}

	// Unknown job and traceless (unexecuted) jobs 404.
	if resp, err := http.Get(base + "/v1/jobs/nope/trace"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("trace for unknown job = %d, want 404", resp.StatusCode)
		}
	}
}

// runOne submits a single run and waits for it to finish.
func runOne(t *testing.T, cl *client.Client, cfg experiment.Config) *service.Job {
	t.Helper()
	ctx := context.Background()
	j, err := cl.Submit(ctx, oneRequest(cfg))
	if err != nil {
		t.Fatal(err)
	}
	done, err := cl.Wait(ctx, j.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != service.StateDone || done.CacheHit {
		t.Fatalf("job %s (cache hit %v), want an executed done job", done.State, done.CacheHit)
	}
	return done
}

// TestRoundSpansParentedOnJob: a single run's per-round spans live in
// the daemon's span store under the job's trace, each parented on the
// job span.
func TestRoundSpansParentedOnJob(t *testing.T) {
	_, cl, base := newObsTestServer(t, service.Options{Workers: 1})
	j := runOne(t, cl, tinyCfg())
	var spans []obs.SpanRecord
	if err := json.Unmarshal(httpGet(t, base+"/v1/fleet/trace/"+j.TraceID), &spans); err != nil {
		t.Fatal(err)
	}
	var job obs.SpanRecord
	for _, r := range spans {
		if strings.HasPrefix(r.Name, "job ") {
			job = r
		}
	}
	if job.SpanID == "" {
		t.Fatalf("no job span with a span ID among %d records", len(spans))
	}
	rounds := 0
	for _, r := range spans {
		if !strings.HasPrefix(r.Name, "round ") {
			continue
		}
		rounds++
		if r.Parent != job.SpanID || r.TraceID != j.TraceID {
			t.Errorf("%s: trace %s parent %q, want trace %s parent %q",
				r.Name, r.TraceID, r.Parent, j.TraceID, job.SpanID)
		}
	}
	if rounds == 0 {
		t.Errorf("no round spans among %d records", len(spans))
	}
}

// TestTraceRetention: Options.TraceHistory caps the traces a daemon
// keeps; the oldest job's trace ages out first.
func TestTraceRetention(t *testing.T) {
	_, cl, base := newObsTestServer(t, service.Options{Workers: 1, TraceHistory: 2})
	var jobs []*service.Job
	for i := 0; i < 3; i++ {
		cfg := tinyCfg()
		cfg.Rounds = 2 + i // distinct configs: every job executes
		jobs = append(jobs, runOne(t, cl, cfg))
	}
	for i, want := range []int{http.StatusNotFound, http.StatusOK, http.StatusOK} {
		resp, err := http.Get(base + "/v1/jobs/" + jobs[i].ID + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("trace of job %d = %d, want %d", i+1, resp.StatusCode, want)
		}
	}
	if held := metricSum(t, cl, "qlecd_traces_held"); held != 2 {
		t.Errorf("qlecd_traces_held = %v, want 2", held)
	}
}

// TestAuditEndpointRealJob runs a real simulation through Execute and
// fetches its flight-recorder artifact: the ledger and decision streams
// must be populated, conservation must hold, the SSE stream must have
// advertised the artifact before the terminal state event, and jobs
// without an executed single run must 404.
func TestAuditEndpointRealJob(t *testing.T) {
	_, cl, base := newObsTestServer(t, service.Options{Workers: 1})
	ctx := context.Background()
	j, err := cl.Submit(ctx, oneRequest(tinyCfg()))
	if err != nil {
		t.Fatal(err)
	}

	// Collect the whole stream; it ends at the terminal state event.
	var events []service.Event
	if err := cl.Events(ctx, j.ID, func(e service.Event) bool {
		events = append(events, e)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	auditIdx, stateIdx := -1, -1
	for i, e := range events {
		switch {
		case e.Type == service.EventAudit:
			auditIdx = i
		case e.Type == service.EventState && e.State.Terminal():
			stateIdx = i
		}
	}
	if auditIdx < 0 {
		t.Fatalf("stream advertised no audit event: %+v", events)
	}
	if stateIdx < auditIdx {
		t.Errorf("audit event at %d arrived after terminal state at %d", auditIdx, stateIdx)
	}
	sum := events[auditIdx].Audit
	if sum == nil || sum.Entries == 0 || sum.Decisions == 0 || sum.Violations != 0 {
		t.Fatalf("audit summary %+v, want populated streams and zero violations", sum)
	}

	resp, err := http.Get(base + "/v1/jobs/" + j.ID + "/audit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET audit = %d, want 200", resp.StatusCode)
	}
	art, err := audit.ReadArtifact(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	rep := art.Report
	if rep.Rounds == 0 || len(art.Ledger) == 0 || len(art.Decisions) == 0 {
		t.Fatalf("artifact rounds=%d ledger=%d decisions=%d, want all populated",
			rep.Rounds, len(art.Ledger), len(art.Decisions))
	}
	if rep.ViolationCount != 0 {
		t.Fatalf("conservation violations on a clean run: %+v", rep.Violations)
	}
	if rep.Entries != sum.Entries || rep.Decisions != sum.Decisions {
		t.Errorf("artifact entries/decisions %d/%d disagree with SSE summary %d/%d",
			rep.Entries, rep.Decisions, sum.Entries, sum.Decisions)
	}

	// The audit counters joined the operational exposition.
	out := scrape(t, base)
	if !strings.Contains(out, "qlec_audit_violations_total 0") {
		t.Errorf("scrape missing qlec_audit_violations_total:\n%s", out)
	}

	// A duplicate submission is a cache hit: job exists, never executed,
	// so it has no artifact.
	dup, err := cl.Submit(ctx, oneRequest(tinyCfg()))
	if err != nil {
		t.Fatal(err)
	}
	if !dup.CacheHit {
		t.Fatalf("duplicate submission was not a cache hit: %+v", dup)
	}
	if resp, err := http.Get(base + "/v1/jobs/" + dup.ID + "/audit"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("audit for cache-hit job = %d, want 404", resp.StatusCode)
		}
	}
	if resp, err := http.Get(base + "/v1/jobs/nope/audit"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("audit for unknown job = %d, want 404", resp.StatusCode)
		}
	}
}

// TestRequestIDCorrelation: a caller-chosen X-Request-ID must be echoed
// on the response and recorded on the job; a client-generated one must
// exist otherwise.
func TestRequestIDCorrelation(t *testing.T) {
	stub := func(ctx context.Context, req service.Request, publish func(service.Event)) (*service.ResultEnvelope, error) {
		return &service.ResultEnvelope{Kind: req.Kind}, nil
	}
	_, cl, base := newObsTestServer(t, service.Options{Workers: 1, Run: stub})

	body, err := json.Marshal(oneRequest(tinyCfg()))
	if err != nil {
		t.Fatal(err)
	}
	httpReq, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set(obs.RequestIDHeader, "corr-42")
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "corr-42" {
		t.Errorf("response %s = %q, want corr-42", obs.RequestIDHeader, got)
	}
	var j service.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	if j.RequestID != "corr-42" {
		t.Errorf("job.RequestID = %q, want corr-42", j.RequestID)
	}

	// The typed client generates an ID when the caller supplies none; a
	// distinct config avoids coalescing onto the job above.
	cfg := tinyCfg()
	cfg.Rounds = 3
	j2, err := cl.Submit(context.Background(), oneRequest(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if j2.RequestID == "" {
		t.Error("client submission recorded no request ID")
	}
}

func TestVersion(t *testing.T) {
	_, _, base := newObsTestServer(t, service.Options{Workers: 1})

	resp, err := http.Get(base + "/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var bi obs.BuildInfo
	if err := json.NewDecoder(resp.Body).Decode(&bi); err != nil {
		t.Fatal(err)
	}
	if bi.GoVersion == "" {
		t.Error("/version goVersion empty")
	}
}
