package service_test

// Profiling & resource-attribution end-to-end tests: per-job usage
// bills in the job record and terminal SSE event, the scrape-time
// runtime gauges and /debug/pprof, and the fleet cost contract — the
// job-cost counters summed over the peers' /metrics equal the
// coordinator's bill for the sweep, because cost is counted once,
// where execution happened.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"testing"
	"time"

	"qlec/internal/experiment"
	"qlec/internal/obs"
	"qlec/internal/service"
)

// httpPostJSON posts a JSON body and decodes the JSON response.
func httpPostJSON(t *testing.T, url string, body, out any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestJobResourceAttribution: an executed job's record and terminal SSE
// event both carry its resource bill; a cache-hit resubmission carries
// none (a hit costs nothing new). The bill's CPU seconds stand for
// "non-empty": AllocBytes is approximate and can read 0 for a job this
// small (see prof.Usage).
func TestJobResourceAttribution(t *testing.T) {
	_, cl := newTestServer(t, service.Options{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req := oneRequest(tinyCfg())
	j, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	events := collectEvents(t, cl, j.ID)
	var terminal *service.Event
	for i := range events {
		if events[i].Type == service.EventState && events[i].State.Terminal() {
			terminal = &events[i]
		}
	}
	if terminal == nil {
		t.Fatal("no terminal event on the stream")
	}
	if terminal.Resources == nil || terminal.Resources.CPUSeconds <= 0 {
		t.Fatalf("terminal event resources = %+v, want a non-empty bill", terminal.Resources)
	}

	done, err := cl.Job(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Resources == nil {
		t.Fatal("executed job carries no resource bill")
	}
	if done.Resources.CPUSeconds <= 0 || done.Resources.WallSeconds <= 0 {
		t.Errorf("job resources = %+v, want positive cpuSeconds and wallSeconds", done.Resources)
	}

	// Identical resubmission: cache hit, no new execution, no bill.
	j2, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := cl.Wait(ctx, j2.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatalf("resubmission was not a cache hit: %+v", hit)
	}
	if hit.Resources != nil {
		t.Errorf("cache-hit job carries a resource bill: %+v", hit.Resources)
	}

	// The direct-run bill also fed the cost counters under the job's
	// kind and protocol.
	exp, err := obs.ParseExposition(bytes.NewReader(httpGet(t, testServerURL(t, cl)+"/metrics")))
	if err != nil {
		t.Fatal(err)
	}
	f := exp.Family("qlecd_job_cpu_seconds_total")
	if f == nil {
		t.Fatal("qlecd_job_cpu_seconds_total absent after an executed job")
	}
	found := false
	for _, s := range f.Samples {
		if s.Label("kind") == "one" && s.Label("protocol") == string(experiment.QLEC) && s.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no positive cpu-seconds sample for {kind=one, protocol=qlec}: %+v", f.Samples)
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

// TestFleetCostFederation is the attribution headline: after a sweep
// runs across a 3-daemon fleet, the qlecd_job_*_total counters summed
// over the peers' /metrics equal the coordinator job's bill. Both sides
// add up the same per-cell usages — each executing peer counts its
// cells, and the coordinator sums the bills the cells report — so cost
// is counted once, where the cells actually executed.
func TestFleetCostFederation(t *testing.T) {
	req := service.Request{
		Kind:      service.KindFig3,
		Config:    fleetSweepCfg(),
		Protocols: []experiment.ProtocolID{experiment.QLEC},
	}
	n1 := startFleetNode(t, service.Options{Workers: 1}, service.FleetOptions{CellWorkers: 1})
	n2 := startFleetNode(t, service.Options{Workers: 1}, service.FleetOptions{Join: n1.url, CellWorkers: 1})
	n3 := startFleetNode(t, service.Options{Workers: 1}, service.FleetOptions{Join: n1.url, CellWorkers: 1})
	nodes := []*fleetNode{n1, n2, n3}
	waitForRoster(t, n1, n2, n3)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	j, err := n1.cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	done, err := n1.cl.Wait(ctx, j.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != service.StateDone {
		t.Fatalf("fleet job %s (error %q), want done", done.State, done.Error)
	}
	if done.Resources == nil || done.Resources.CPUSeconds <= 0 {
		t.Fatalf("distributed sweep job resources = %+v, want the summed cell bills", done.Resources)
	}

	for _, c := range []struct {
		name string
		bill float64
	}{
		{"qlecd_job_alloc_bytes_total", float64(done.Resources.AllocBytes)},
		{"qlecd_job_cpu_seconds_total", done.Resources.CPUSeconds},
	} {
		perPeer := 0.0
		series := 0
		for _, n := range nodes {
			exp, err := obs.ParseExposition(bytes.NewReader(httpGet(t, n.url+"/metrics")))
			if err != nil {
				t.Fatal(err)
			}
			f := exp.Family(c.name)
			if f == nil {
				continue
			}
			for _, s := range f.Samples {
				if s.Label("kind") == "cell" && s.Label("protocol") != string(experiment.QLEC) {
					t.Errorf("%s cell sample under protocol %q, want %s", c.name, s.Label("protocol"), experiment.QLEC)
				}
				perPeer += s.Value
				series++
			}
		}
		if math.Abs(c.bill-perPeer) > 1e-9*math.Max(1, math.Abs(perPeer)) {
			t.Errorf("%s summed over peers = %g, coordinator job bill = %g, want equal", c.name, perPeer, c.bill)
		}
		if c.name == "qlecd_job_alloc_bytes_total" && (perPeer <= 0 || series == 0) {
			t.Errorf("per-peer %s sum = %g over %d series, want positive (cells executed somewhere)", c.name, perPeer, series)
		}
	}
}
