package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"qlec/internal/stats"
)

// The metric sets the JSON result line carries: every end-to-end metric
// on an untraced run, every per-layer metric on a traced one. They
// mirror BENCHMARK.json (the smoke test pins the correspondence); each
// is defined on every workload, so a metric that does not apply to a
// workload's layers reads 0 there. Workload-specific metrics (the
// service's hit/miss split, the fleet's overhead over raw runner.Map)
// are printed as text lines only.
var (
	endToEndMetrics = []string{
		"setup_s", "ops_per_s", "latency_ms_p75", "peak_rss_mb",
	}
	perLayerMetrics = []string{
		"experiment.cell_ms_p50", "experiment.cell_ms_p90", "runner.busy_frac",
		"network.deploy_ms", "protocol.build_ms",
		"chsel.ms_per_round", "route.ns_per_call", "route.calls_per_op",
		"learn.ns_per_call", "learn.calls_per_op", "endround.ms_per_round",
		"sim.self_ns_per_packet", "sim.packets_per_op",
		"mem.alloc_mb_per_op", "gc.cycles_per_op", "trace.overhead_frac",
		"http.requests_per_op", "service.simulations_per_op",
		"fleet.cells_stolen", "fleet.steal_starvation", "fleet.cache_replications",
	}
)

// metric is one measured value with its unit and sample count.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// report accumulates one run: its metrics, the operations it attempted,
// and every operation that failed or produced a wrong output.
type report struct {
	workload  string
	metrics   []metric
	attempted int
	failed    int
	problems  []string
}

func (r *report) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name, value, unit, n})
}

// ops records n attempted operations.
func (r *report) ops(n int) { r.attempted += n }

// fail records n failed operations with the reason.
func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// write prints one text line per metric, the problems, and as the last
// line the JSON result restricted to the metric set of the run mode.
func (r *report) write(w io.Writer, traced bool) error {
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", r.workload, m.Name, m.Value, m.Unit, m.N)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "%s FAILED %s\n", r.workload, p)
	}
	want := endToEndMetrics
	if traced {
		want = perLayerMetrics
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	for _, name := range want {
		m, ok := r.lookup(name)
		if !ok {
			return fmt.Errorf("bench: %s did not measure %s", r.workload, name)
		}
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func (r *report) lookup(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// addEndToEnd adds the shared end-to-end metrics: set-up time (median
// over the run's set-ups), throughput in operations per second, the
// upper-quartile latency of the workload's requests, and peak RSS
// (median over the measured phase's repetitions). The latency is taken
// at p75 because half of service-mixed's requests are sub-millisecond
// cache hits: its median would sit on the boundary between hits and
// misses, while p75 lies inside the misses.
func (r *report) addEndToEnd(setups []time.Duration, opsPerSec float64, opsN int, latencies []time.Duration, peaks []float64) {
	r.add("setup_s", stats.Median(ms(setups))/1000, "s", len(setups))
	r.add("ops_per_s", opsPerSec, "1/s", opsN)
	lat := ms(latencies)
	r.add("latency_ms_p75", stats.Quantile(lat, 0.75), "ms", len(lat))
	r.add("peak_rss_mb", stats.Median(peaks), "MB", len(peaks))
}

// resetPeakRSS restarts the kernel's count of the process's resident-set
// high-water mark, so the next peakRSSMB reads the peak of what ran in
// between. Where the kernel refuses, peakRSSMB keeps reading the peak
// since the process started.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	f.WriteString("5") // 5 resets the high-water mark only
	f.Close()
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) since
// it started or since the last resetPeakRSS.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeCost snapshots the Go runtime's allocation and GC counters so a
// phase can report its cost per operation.
type runtimeCost struct {
	alloc uint64
	gcs   uint32
}

func readRuntimeCost() runtimeCost {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeCost{m.TotalAlloc, m.NumGC}
}

// addRuntimeCost reports the allocation volume and GC cycles between
// before and now, per operation.
func (r *report) addRuntimeCost(before runtimeCost, ops int) {
	after := readRuntimeCost()
	r.add("mem.alloc_mb_per_op", float64(after.alloc-before.alloc)/(1<<20)/float64(ops), "MB", ops)
	r.add("gc.cycles_per_op", float64(after.gcs-before.gcs)/float64(ops), "count", ops)
}

// addOverhead reports the traced phase's slowdown over the untraced one,
// both measured as median time per operation.
func (r *report) addOverhead(untraced, traced []float64) {
	r.add("trace.overhead_frac", stats.Median(traced)/stats.Median(untraced)-1, "ratio", len(traced))
}

// addZero reports per-layer metrics of layers the workload does not run.
func (r *report) addZero(unit string, names ...string) {
	for _, n := range names {
		r.add(n, 0, unit, 0)
	}
}
