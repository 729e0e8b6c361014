package service_test

// Fleet observability end-to-end tests: cross-peer trace propagation
// and each peer's /metrics, all over real listeners under the race
// detector (same harness as fleet_e2e_test.go).

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"qlec/internal/experiment"
	"qlec/internal/obs"
	"qlec/internal/service"
)

// httpGet fetches a URL raw — for the endpoints the typed client does
// not wrap (fleet-internal trace exchange, /metrics, merged traces).
func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body
}

// TestFleetTraceAndMetrics is the observability headline: one traced
// sweep across a 3-daemon fleet leaves spans of a single trace ID on at
// least two peers (visible raw per peer and merged into one multi-lane
// Chrome trace), every peer serves a lint-clean /metrics, and the
// completion counter summed over the peers equals the sweep's cells.
func TestFleetTraceAndMetrics(t *testing.T) {
	req := service.Request{
		Kind:      service.KindFig3,
		Config:    fleetSweepCfg(),
		Protocols: []experiment.ProtocolID{experiment.QLEC, experiment.LEACH},
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
	if j.TraceID == "" {
		t.Fatal("submitted job carries no trace ID")
	}
	done, err := n1.cl.Wait(ctx, j.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != service.StateDone {
		t.Fatalf("fleet job %s (error %q), want done", done.State, done.Error)
	}

	// Raw per-peer span exchange: one trace ID, spans held on >= 2 peers,
	// and somewhere in the fleet a cell ran as stolen work under it.
	peersWithSpans, sawStolen := 0, false
	for _, n := range nodes {
		var spans []obs.SpanRecord
		if err := json.Unmarshal(httpGet(t, n.url+"/v1/fleet/trace/"+j.TraceID), &spans); err != nil {
			t.Fatal(err)
		}
		if len(spans) > 0 {
			peersWithSpans++
		}
		for _, sp := range spans {
			if sp.TraceID != j.TraceID {
				t.Errorf("peer %s holds span %q under trace %s, want %s", n.url, sp.Name, sp.TraceID, j.TraceID)
			}
			if src, _ := sp.Args["source"].(string); src == "stolen" {
				sawStolen = true
			}
		}
	}
	if peersWithSpans < 2 {
		t.Errorf("trace %s has spans on %d peers, want >= 2", j.TraceID, peersWithSpans)
	}
	if !sawStolen {
		t.Error("no cell span ran as stolen work — the trace never crossed a steal")
	}

	// Merged Chrome view: the coordinator collects every peer's spans
	// into one document with a lane (pid + process_name) per daemon.
	var doc struct {
		TraceEvents []struct {
			Name  string          `json:"name"`
			Phase string          `json:"ph"`
			PID   int             `json:"pid"`
			Args  json.RawMessage `json:"args,omitempty"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(httpGet(t, n1.url+"/v1/jobs/"+j.ID+"/trace"), &doc); err != nil {
		t.Fatal(err)
	}
	lanes := map[int]bool{}
	for _, e := range doc.TraceEvents {
		if e.Phase == "M" && e.Name == "process_name" {
			lanes[e.PID] = true
		}
	}
	if len(lanes) < 2 {
		t.Errorf("merged trace has %d lanes, want >= 2 (one per contributing daemon)", len(lanes))
	}

	// Per-peer metrics: each /metrics lints clean, and the coordinator
	// counts every cell of the sweep exactly once, so the completion
	// counter summed over the peers is the sweep's cell count.
	completed := 0.0
	for _, n := range nodes {
		body := httpGet(t, n.url+"/metrics")
		if err := obs.LintExposition(bytes.NewReader(body)); err != nil {
			t.Fatalf("peer %s /metrics fails lint: %v", n.url, err)
		}
		exp, err := obs.ParseExposition(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if f := exp.Family("qlecd_fleet_cells_completed_total"); f != nil {
			for _, s := range f.Samples {
				completed += s.Value
			}
		}
	}
	cells, err := req.Config.Fig3Cells(req.Protocols)
	if err != nil {
		t.Fatal(err)
	}
	if completed != float64(len(cells)) {
		t.Errorf("cells_completed summed over peers = %g, want the sweep's %d cells", completed, len(cells))
	}
}
