package service_test

// Observability end-to-end tests: Prometheus scrapes against a live
// server (including mid-job, asserting round-level sim gauges appear),
// exposition linting, Chrome-trace download and retention, request-ID
// correlation, and the /version endpoint.

import (
	"bytes"
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
// must lint clean. The stub RunFunc drives the round observer the
// worker hands a one job (the hook Execute installs on the engine),
// then parks until released, so the scrape observes a guaranteed-running
// job without sleeps.
func TestMetricsScrapeDuringRunningJob(t *testing.T) {
	running := make(chan struct{})
	release := make(chan struct{})
	run := func(ctx context.Context, req service.Request, h experiment.Hooks) (*service.ResultEnvelope, error) {
		if h.Observer == nil {
			t.Error("worker runs a one job without a round observer")
			return &service.ResultEnvelope{Kind: req.Kind}, nil
		}
		h.Observer(sim.RoundSnapshot{
			Round: 7, Alive: 15, EnergySoFar: 12,
			Stats: metrics.RoundStats{Heads: 2, Generated: 40, Delivered: 38},
			MeanQ: 0.3, HasQ: true,
		})
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

// auditStatus GETs a job's audit artifact and returns the status code
// and body.
func auditStatus(t *testing.T, base, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/audit")
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

// TestAuditEndpointRealJob runs a real simulation through Execute and
// fetches its flight-recorder artifact. Jobs run unrecorded: the
// audit counters stay out of the exposition until the GET, which
// rebuilds the artifact by replaying the job's normalized request. The
// served bytes must equal a library RunOne recorded on that request,
// the ledger and decision streams must be populated, conservation must
// hold, a cache-hit twin must be served the same bytes, and a fig3 job
// or an unknown job must 404.
func TestAuditEndpointRealJob(t *testing.T) {
	_, cl, base := newObsTestServer(t, service.Options{Workers: 1})
	ctx := context.Background()
	j := runOne(t, cl, tinyCfg())

	if out := scrape(t, base); strings.Contains(out, "qlec_audit_") {
		t.Fatalf("an executed job moved the audit counters; jobs must run unrecorded:\n%s", out)
	}
	status, body := auditStatus(t, base, j.ID)
	if status != http.StatusOK {
		t.Fatalf("GET audit = %d (%s), want 200", status, bytes.TrimSpace(body))
	}
	art, err := audit.ReadArtifact(bytes.NewReader(body))
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
	// The replay is the library's recorded run of the stored request.
	req := j.Request
	rec := audit.New(audit.Options{})
	if _, err := req.Config.RunOneWith(ctx, req.Protocols[0], req.Lambda, req.Seed, req.Lifespan, experiment.Hooks{Audit: rec}); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := audit.WriteArtifact(&want, rec.Artifact()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("served artifact (%d bytes) differs from the library run's (%d bytes)", len(body), want.Len())
	}

	// The audit counters joined the operational exposition with the GET.
	if out := scrape(t, base); !strings.Contains(out, "qlec_audit_violations_total 0") {
		t.Errorf("scrape missing qlec_audit_violations_total after the GET:\n%s", out)
	}

	// A duplicate submission is a cache hit: it never executed, but it
	// carries the same request, so it gets the same artifact.
	dup, err := cl.Submit(ctx, oneRequest(tinyCfg()))
	if err != nil {
		t.Fatal(err)
	}
	if !dup.CacheHit {
		t.Fatalf("duplicate submission was not a cache hit: %+v", dup)
	}
	if status, dupBody := auditStatus(t, base, dup.ID); status != http.StatusOK || !bytes.Equal(dupBody, body) {
		t.Errorf("audit for cache-hit job = %d, %d bytes; want 200 and the miss's %d bytes",
			status, len(dupBody), len(body))
	}

	fig3 := tinyCfg()
	fig3.Rounds = 1
	fj, err := cl.Submit(ctx, service.Request{Kind: service.KindFig3, Config: fig3,
		Protocols: []experiment.ProtocolID{experiment.QLEC}})
	if err != nil {
		t.Fatal(err)
	}
	if fj, err = cl.Wait(ctx, fj.ID, time.Millisecond); err != nil || fj.State != service.StateDone {
		t.Fatalf("fig3 job: %+v, %v; want done", fj, err)
	}
	for what, id := range map[string]string{"fig3": fj.ID, "unknown": "nope"} {
		if status, _ := auditStatus(t, base, id); status != http.StatusNotFound {
			t.Errorf("audit for %s job = %d, want 404", what, status)
		}
	}
}

// TestAuditEndpointUnfinishedAndStubJobs: a queued or running job has
// no artifact yet, and a RunFunc that never drives the recorder yields
// none either — each answers 404, and a replay never counts as a
// simulation.
func TestAuditEndpointUnfinishedAndStubJobs(t *testing.T) {
	running := make(chan struct{}, 1)
	release := make(chan struct{})
	run := func(ctx context.Context, req service.Request, h experiment.Hooks) (*service.ResultEnvelope, error) {
		select {
		case running <- struct{}{}:
			<-release
		default: // the audit replay: return at once
		}
		return &service.ResultEnvelope{Kind: req.Kind}, nil
	}
	_, cl, base := newObsTestServer(t, service.Options{Workers: 1, Run: run})
	ctx := context.Background()
	first, err := cl.Submit(ctx, oneRequest(tinyCfg()))
	if err != nil {
		t.Fatal(err)
	}
	<-running
	cfg := tinyCfg()
	cfg.Rounds = 3
	queued, err := cl.Submit(ctx, oneRequest(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for what, id := range map[string]string{"running": first.ID, "queued": queued.ID} {
		if status, _ := auditStatus(t, base, id); status != http.StatusNotFound {
			t.Errorf("audit for %s job = %d, want 404", what, status)
		}
	}
	close(release)
	done, err := cl.Wait(ctx, first.ID, time.Millisecond)
	if err != nil || done.State != service.StateDone {
		t.Fatalf("stub job: %+v, %v; want done", done, err)
	}
	if status, _ := auditStatus(t, base, first.ID); status != http.StatusNotFound {
		t.Errorf("audit for a stub job that recorded nothing = %d, want 404", status)
	}
	if got := metricSum(t, cl, "qlecd_simulations_total"); got > 2 {
		t.Errorf("qlecd_simulations_total = %v after 2 jobs; a replay counted as a simulation", got)
	}
}

// TestRequestIDCorrelation: a caller-chosen X-Request-ID must be echoed
// on the response and recorded on the job; a client-generated one must
// exist otherwise.
func TestRequestIDCorrelation(t *testing.T) {
	stub := func(ctx context.Context, req service.Request, h experiment.Hooks) (*service.ResultEnvelope, error) {
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
