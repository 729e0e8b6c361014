package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestFleetMetricsExposition: the qlecd_fleet_* family set renders a
// lint-clean exposition with every series a fleet's scrapers read.
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

func parseExposition(t *testing.T, text string) *Exposition {
	t.Helper()
	exp, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// TestLintRejectsDuplicateSeries: the linter catches a duplicated
// series, which a scraper would reject.
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
