package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestFleetMetricsExposition: the qlecd_fleet_* family set renders a
// lint-clean exposition with every series the federation layer and
// qlecstat depend on.
func TestFleetMetricsExposition(t *testing.T) {
	r := NewRegistry()
	fm := NewFleetMetrics(r)
	fm.CellsExecuted.With("local").Add(3)
	fm.CellsExecuted.With("stolen").Add(2)
	fm.CellsStolenOut.Inc()
	fm.CellsStolenIn.Add(2)
	fm.ProxyHitsServed.Inc()
	fm.ProxyHitsFetched.Inc()
	fm.CacheReplications.Inc()
	fm.CellsCompleted.Add(5)
	fm.StealStarvation.Add(7)
	fm.CellWait.Observe(0.005)
	fm.CellWait.Observe(2.5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	for _, want := range []string{
		`qlecd_fleet_cells_executed_total{source="local"} 3`,
		`qlecd_fleet_cells_executed_total{source="stolen"} 2`,
		"qlecd_fleet_cells_stolen_out_total 1",
		"qlecd_fleet_cells_stolen_in_total 2",
		"qlecd_fleet_proxy_hits_served_total 1",
		"qlecd_fleet_proxy_hits_fetched_total 1",
		"qlecd_fleet_cache_replications_total 1",
		"qlecd_fleet_cells_completed_total 5",
		"qlecd_fleet_steal_starvation_total 7",
		`qlecd_fleet_cell_wait_seconds_bucket{le="0.01"} 1`,
		`qlecd_fleet_cell_wait_seconds_bucket{le="10"} 2`,
		"qlecd_fleet_cell_wait_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if err := LintExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("fleet exposition fails lint: %v\n%s", err, text)
	}
}

const peerExpositionA = `# HELP qlecd_fleet_cells_completed_total Cells completed.
# TYPE qlecd_fleet_cells_completed_total counter
qlecd_fleet_cells_completed_total 4
# HELP qlecd_queue_depth Jobs queued.
# TYPE qlecd_queue_depth gauge
qlecd_queue_depth 2
# HELP qlecd_fleet_cell_wait_seconds Cell pool wait.
# TYPE qlecd_fleet_cell_wait_seconds histogram
qlecd_fleet_cell_wait_seconds_bucket{le="0.1"} 3
qlecd_fleet_cell_wait_seconds_bucket{le="1"} 4
qlecd_fleet_cell_wait_seconds_bucket{le="+Inf"} 4
qlecd_fleet_cell_wait_seconds_sum 0.9
qlecd_fleet_cell_wait_seconds_count 4
`

const peerExpositionB = `# HELP qlecd_fleet_cells_completed_total Cells completed.
# TYPE qlecd_fleet_cells_completed_total counter
qlecd_fleet_cells_completed_total 6
# HELP qlecd_queue_depth Jobs queued.
# TYPE qlecd_queue_depth gauge
qlecd_queue_depth 5
# HELP qlecd_fleet_cell_wait_seconds Cell pool wait.
# TYPE qlecd_fleet_cell_wait_seconds histogram
qlecd_fleet_cell_wait_seconds_bucket{le="0.1"} 1
qlecd_fleet_cell_wait_seconds_bucket{le="1"} 5
qlecd_fleet_cell_wait_seconds_bucket{le="+Inf"} 6
qlecd_fleet_cell_wait_seconds_sum 12.5
qlecd_fleet_cell_wait_seconds_count 6
`

func parseExposition(t *testing.T, text string) *Exposition {
	t.Helper()
	exp, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// TestMergeExpositions: counters and histogram buckets sum across
// instances (and stay cumulative), gauges fan out with an instance
// label, and the merged document still passes the linter after a
// write/re-parse round trip.
func TestMergeExpositions(t *testing.T) {
	merged, err := MergeExpositions([]Instance{
		{Name: "http://peer-a:8080", Exp: parseExposition(t, peerExpositionA)},
		{Name: "http://peer-b:8080", Exp: parseExposition(t, peerExpositionB)},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Counter: 4 + 6.
	cf := merged.Family("qlecd_fleet_cells_completed_total")
	if cf == nil || len(cf.Samples) != 1 {
		t.Fatalf("completed counter merged to %+v, want one summed series", cf)
	}
	if cf.Samples[0].Value != 10 {
		t.Fatalf("summed counter = %g, want 10", cf.Samples[0].Value)
	}

	// Gauge: two series, one per instance.
	gf := merged.Family("qlecd_queue_depth")
	if gf == nil || len(gf.Samples) != 2 {
		t.Fatalf("queue depth merged to %+v, want two labeled series", gf)
	}
	byInst := map[string]float64{}
	for _, s := range gf.Samples {
		byInst[s.Label(InstanceLabel)] = s.Value
	}
	if byInst["http://peer-a:8080"] != 2 || byInst["http://peer-b:8080"] != 5 {
		t.Fatalf("gauge fan-out = %v", byInst)
	}

	// Histogram: buckets summed pairwise and still cumulative.
	hf := merged.Family("qlecd_fleet_cell_wait_seconds")
	if hf == nil {
		t.Fatal("histogram family missing after merge")
	}
	wantBuckets := map[string]float64{"0.1": 4, "1": 9, "+Inf": 10}
	var prev float64 = -1
	for _, s := range hf.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			le := s.Label("le")
			if want, ok := wantBuckets[le]; !ok || s.Value != want {
				t.Errorf("bucket le=%s = %g, want %g", le, s.Value, want)
			}
			if s.Value < prev {
				t.Errorf("merged buckets not cumulative: le=%s holds %g after %g", le, s.Value, prev)
			}
			prev = s.Value
		case strings.HasSuffix(s.Name, "_sum"):
			if math.Abs(s.Value-13.4) > 1e-9 {
				t.Errorf("summed _sum = %g, want 13.4", s.Value)
			}
		case strings.HasSuffix(s.Name, "_count"):
			if s.Value != 10 {
				t.Errorf("summed _count = %g, want 10", s.Value)
			}
		}
	}

	// Round trip: write, lint, re-parse.
	var buf bytes.Buffer
	if err := WriteExposition(&buf, merged); err != nil {
		t.Fatal(err)
	}
	if err := LintExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("merged exposition fails lint: %v\n%s", err, buf.String())
	}
	again := parseExposition(t, buf.String())
	if f := again.Family("qlecd_fleet_cells_completed_total"); f == nil || f.Samples[0].Value != 10 {
		t.Fatalf("round-tripped counter lost its value: %+v", f)
	}
}

// TestMergeExpositionsGaugePassThrough: a gauge that already carries an
// instance label (the federation handler's synthetic peer-up series)
// keeps it instead of being double-labeled.
func TestMergeExpositionsGaugePassThrough(t *testing.T) {
	synthetic := `# HELP qlecd_federate_peer_up Peer scrape status.
# TYPE qlecd_federate_peer_up gauge
qlecd_federate_peer_up{instance="http://peer-a:8080"} 1
qlecd_federate_peer_up{instance="http://peer-b:8080"} 0
`
	merged, err := MergeExpositions([]Instance{
		{Name: "__federator__", Exp: parseExposition(t, synthetic)},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := merged.Family("qlecd_federate_peer_up")
	if f == nil || len(f.Samples) != 2 {
		t.Fatalf("peer-up merged to %+v", f)
	}
	for _, s := range f.Samples {
		if got := s.Label(InstanceLabel); got == "__federator__" || got == "" {
			t.Errorf("pass-through gauge got instance %q, want the pre-set peer URL", got)
		}
		if len(s.Labels) != 1 {
			t.Errorf("pass-through gauge grew labels: %+v", s.Labels)
		}
	}
}

// TestMergeExpositionsTypeConflict: the same metric name exposed with
// different types on different instances must fail the merge — a
// silent pick would poison the whole federated scrape.
func TestMergeExpositionsTypeConflict(t *testing.T) {
	asCounter := `# TYPE qlecd_thing_total counter
qlecd_thing_total 1
`
	asGauge := `# TYPE qlecd_thing_total gauge
qlecd_thing_total 1
`
	_, err := MergeExpositions([]Instance{
		{Name: "a", Exp: parseExposition(t, asCounter)},
		{Name: "b", Exp: parseExposition(t, asGauge)},
	})
	if err == nil {
		t.Fatal("type conflict across instances merged without error")
	}
	if !strings.Contains(err.Error(), "qlecd_thing_total") {
		t.Fatalf("conflict error %q does not name the metric", err)
	}
}

// TestLintRejectsDuplicateSeries: the linter that gates the federated
// output catches a duplicated series — the failure mode a broken merge
// would produce.
func TestLintRejectsDuplicateSeries(t *testing.T) {
	dup := `# HELP qlecd_x_total x
# TYPE qlecd_x_total counter
qlecd_x_total 1
qlecd_x_total 2
`
	if err := LintExposition(strings.NewReader(dup)); err == nil {
		t.Fatal("duplicate series passed lint")
	}
}
