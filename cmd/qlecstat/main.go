// Command qlecstat is a live fleet dashboard over qlecd's federation
// endpoint: it polls GET /metrics/federate on one daemon (which scrapes
// and merges every ready peer) plus the /v1/fleet roster, and renders
// per-peer load — queue depth, busy workers, pending cells, steal
// traffic, queue-wait quantiles, runtime gauges — alongside fleet-wide
// totals.
//
// Usage:
//
//	qlecstat -addr http://127.0.0.1:8080              # refresh every 2s
//	qlecstat -addr http://127.0.0.1:8080 -once        # one snapshot
//	qlecstat -addr http://127.0.0.1:8080 -check       # CI: lint the
//	                                                  # federated scrape
//	                                                  # and exit
//
// -check fetches /metrics/federate, runs the exposition linter over it
// and exits non-zero on any failure — the same gate CI applies
// mid-batch in the fleet e2e job.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"qlec/internal/cli"
	"qlec/internal/fleet"
	"qlec/internal/obs"
	"qlec/internal/plot"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "base URL of any fleet member")
	interval := flag.Duration("interval", 2*time.Second, "dashboard refresh cadence")
	once := flag.Bool("once", false, "render one snapshot and exit")
	check := flag.Bool("check", false, "fetch /metrics/federate, lint it, report and exit (CI mode)")
	logCfg := cli.LogFlags(flag.CommandLine)
	prof := cli.ProfileFlags(flag.CommandLine)
	flag.Parse()
	logCfg.MustSetup(os.Stderr)
	if err := prof.Start(); err != nil {
		fail(err)
	}
	defer prof.Stop()

	ctx, stop := cli.Context(0)
	defer stop()
	hc := &http.Client{Timeout: 10 * time.Second}
	base := strings.TrimRight(*addr, "/")

	if *check {
		if err := checkFederate(ctx, hc, base); err != nil {
			fail(err)
		}
		return
	}

	for {
		out, err := snapshot(ctx, hc, base)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			fail(err)
		}
		if !*once {
			// Home the cursor and clear so the dashboard repaints in place.
			fmt.Print("\033[H\033[2J")
		}
		fmt.Print(out)
		if *once {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(*interval):
		}
	}
}

// checkFederate is the CI gate: the federated exposition must download
// and pass the same linter qlecd's own tests hold /metrics to.
func checkFederate(ctx context.Context, hc *http.Client, base string) error {
	body, err := get(ctx, hc, base+"/metrics/federate")
	if err != nil {
		return err
	}
	if err := obs.LintExposition(bytes.NewReader(body)); err != nil {
		return fmt.Errorf("federated exposition fails lint: %w", err)
	}
	exp, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		return err
	}
	instances := map[string]bool{}
	if f := exp.Family("qlecd_federate_peer_up"); f != nil {
		for _, s := range f.Samples {
			instances[s.Label(obs.InstanceLabel)] = true
		}
	}
	fmt.Printf("federation ok: %d families, %d instances\n", len(exp.Families), len(instances))
	return nil
}

// snapshot renders one dashboard frame.
func snapshot(ctx context.Context, hc *http.Client, base string) (string, error) {
	var st fleet.Status
	body, err := get(ctx, hc, base+"/v1/fleet")
	if err != nil {
		return "", err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return "", fmt.Errorf("decode /v1/fleet: %w", err)
	}
	fedBody, err := get(ctx, hc, base+"/metrics/federate")
	if err != nil {
		return "", err
	}
	exp, err := obs.ParseExposition(bytes.NewReader(fedBody))
	if err != nil {
		return "", fmt.Errorf("parse federated metrics: %w", err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "qlecstat %s — fleet via %s\n\n", time.Now().Format("15:04:05"), base)

	// Per-instance rows: gauges carry the instance label after merging;
	// queue-wait quantiles come from each peer's own /metrics scrape
	// (the federated histogram is summed fleet-wide, so per-peer shape
	// is only visible at the source).
	instances := gaugeByInstance(exp, "qlecd_federate_peer_up")
	names := make([]string, 0, len(instances))
	for name := range instances {
		names = append(names, name)
	}
	sort.Strings(names)

	queue := gaugeByInstance(exp, "qlecd_queue_depth")
	busy := gaugeByInstance(exp, "qlecd_workers_busy")
	pendingCells := gaugeByInstance(exp, "qlecd_fleet_cells_pending")
	// Runtime gauges; a peer that is down contributes none, so missing
	// entries render as "-".
	goroutines := gaugeByInstance(exp, "qlecd_runtime_goroutines")
	heapLive := gaugeByInstance(exp, "qlecd_runtime_heap_live_bytes")
	gcFrac := gaugeByInstance(exp, "qlecd_runtime_gc_cpu_fraction")

	var rows [][]string
	for _, name := range names {
		up := instances[name] > 0
		p50, p95 := "-", "-"
		if up {
			if h := scrapeHistogram(ctx, hc, name, base, st.Self, "qlecd_job_queue_wait_seconds"); h != nil {
				p50 = fmtSeconds(h.quantile(0.50))
				p95 = fmtSeconds(h.quantile(0.95))
			}
		}
		status := "up"
		if !up {
			status = "DOWN"
		}
		goro, heap, gc := "-", "-", "-"
		if v, ok := goroutines[name]; ok {
			goro = fmt.Sprintf("%.0f", v)
		}
		if v, ok := heapLive[name]; ok {
			heap = fmtBytes(v)
		}
		if v, ok := gcFrac[name]; ok {
			gc = fmt.Sprintf("%.2f%%", 100*v)
		}
		rows = append(rows, []string{
			name, status,
			fmt.Sprintf("%.0f", queue[name]),
			fmt.Sprintf("%.0f", busy[name]),
			fmt.Sprintf("%.0f", pendingCells[name]),
			p50, p95,
			goro, heap, gc,
		})
	}
	b.WriteString(plot.Table(
		[]string{"instance", "state", "queue", "busy", "cells", "wait p50", "wait p95", "goro", "heap", "gc cpu"}, rows))
	b.WriteString("\n\n")

	// Fleet-wide rollups: counters in the federated view are already
	// summed across instances.
	completed := counterTotal(exp, "qlecd_fleet_cells_completed_total")
	stolen := counterTotal(exp, "qlecd_fleet_cells_stolen_in_total")
	starved := counterTotal(exp, "qlecd_fleet_steal_starvation_total")
	hits := counterTotal(exp, "qlecd_cache_hits_total")
	misses := counterTotal(exp, "qlecd_cache_misses_total")
	hitRatio := "-"
	if hits+misses > 0 {
		hitRatio = fmt.Sprintf("%.1f%%", 100*hits/(hits+misses))
	}
	stealRate := "-"
	if completed > 0 {
		stealRate = fmt.Sprintf("%.1f%%", 100*stolen/completed)
	}
	b.WriteString(plot.Table(
		[]string{"fleet total", "value"},
		[][]string{
			{"cells completed", fmt.Sprintf("%.0f", completed)},
			{"cells stolen", fmt.Sprintf("%.0f (%s of completions)", stolen, stealRate)},
			{"starved polls", fmt.Sprintf("%.0f", starved)},
			{"cache hit ratio", hitRatio},
			{"cells pending/leased here", fmt.Sprintf("%d/%d", st.CellsPending, st.CellsLeased)},
			{"open batches", fmt.Sprintf("%d", st.OpenBatches)},
		}))
	b.WriteString("\n")
	return b.String(), nil
}

// gaugeByInstance extracts a merged gauge family keyed by its instance
// label.
func gaugeByInstance(exp *obs.Exposition, name string) map[string]float64 {
	out := map[string]float64{}
	f := exp.Family(name)
	if f == nil {
		return out
	}
	for _, s := range f.Samples {
		out[s.Label(obs.InstanceLabel)] = s.Value
	}
	return out
}

// counterTotal sums a merged counter family across its series.
func counterTotal(exp *obs.Exposition, name string) float64 {
	f := exp.Family(name)
	if f == nil {
		return 0
	}
	total := 0.0
	for _, s := range f.Samples {
		total += s.Value
	}
	return total
}

// histo is one scraped histogram: cumulative bucket counts by bound.
type histo struct {
	bounds []float64
	counts []float64 // cumulative, +Inf last
}

// scrapeHistogram fetches one peer's own /metrics and extracts the
// named histogram. The instance name is its base URL except for the
// standalone "local" placeholder, which is reachable at the dashboard's
// -addr.
func scrapeHistogram(ctx context.Context, hc *http.Client, instance, base, self, name string) *histo {
	target := instance
	if !strings.HasPrefix(target, "http") {
		target = base
	} else if instance == self {
		target = base // prefer the address the operator gave us
	}
	body, err := get(ctx, hc, strings.TrimRight(target, "/")+"/metrics")
	if err != nil {
		return nil
	}
	exp, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		return nil
	}
	f := exp.Family(name)
	if f == nil || f.Type != "histogram" {
		return nil
	}
	h := &histo{}
	for _, s := range f.Samples {
		if !strings.HasSuffix(s.Name, "_bucket") {
			continue
		}
		le := s.Label("le")
		bound := math.Inf(1)
		if le != "+Inf" {
			fmt.Sscanf(le, "%g", &bound)
		}
		h.bounds = append(h.bounds, bound)
		h.counts = append(h.counts, s.Value)
	}
	if len(h.bounds) == 0 {
		return nil
	}
	return h
}

// quantile estimates a quantile from cumulative buckets with linear
// interpolation inside the landing bucket (Prometheus-style); NaN when
// the histogram is empty.
func (h *histo) quantile(q float64) float64 {
	total := h.counts[len(h.counts)-1]
	if total == 0 {
		return math.NaN()
	}
	rank := q * total
	prevBound, prevCount := 0.0, 0.0
	for i, c := range h.counts {
		if c >= rank {
			bound := h.bounds[i]
			if math.IsInf(bound, 1) {
				return prevBound // open-ended bucket: report its lower edge
			}
			if c == prevCount {
				return bound
			}
			return prevBound + (bound-prevBound)*(rank-prevCount)/(c-prevCount)
		}
		prevBound, prevCount = h.bounds[i], c
	}
	return h.bounds[len(h.bounds)-1]
}

func fmtSeconds(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v < 1:
		return fmt.Sprintf("%.1fms", v*1000)
	default:
		return fmt.Sprintf("%.2fs", v)
	}
}

// fmtBytes renders a byte gauge human-readably (binary units).
func fmtBytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.1fGiB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}

func get(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qlecstat:", err)
	os.Exit(1)
}
