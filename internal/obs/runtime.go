package obs

import "runtime/metrics"

// RegisterRuntime registers the qlecd_runtime_* gauges on reg. Each
// reads runtime/metrics when /metrics is scraped; nothing runs between
// scrapes.
func RegisterRuntime(reg *Registry) {
	count := func(name string) func() float64 {
		return func() float64 { return float64(readMetric(name).Uint64()) }
	}
	reg.GaugeFunc("qlecd_runtime_heap_live_bytes", "Bytes of live heap objects at scrape time.",
		count("/memory/classes/heap/objects:bytes"))
	reg.GaugeFunc("qlecd_runtime_heap_goal_bytes", "GC heap goal at scrape time.",
		count("/gc/heap/goal:bytes"))
	reg.GaugeFunc("qlecd_runtime_goroutines", "Goroutine count at scrape time.",
		count("/sched/goroutines:goroutines"))
	reg.GaugeFunc("qlecd_runtime_gc_cpu_fraction",
		"Fraction of CPU time spent in GC since process start (refreshes at GC boundaries).",
		func() float64 {
			tot := readMetric("/cpu/classes/total:cpu-seconds").Float64()
			if tot <= 0 {
				return 0
			}
			return readMetric("/cpu/classes/gc/total:cpu-seconds").Float64() / tot
		})
}

// readMetric reads one runtime/metrics sample.
func readMetric(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}
