// Package prof is the resource-attribution layer for qlecd
// (DESIGN.md §16). It has two parts:
//
//   - Bracket / Usage: cheap begin/end deltas (CPU seconds via
//     getrusage, alloc bytes / GC cycles / live heap via
//     runtime/metrics) used to bill every job and sweep cell the
//     daemon executes.
//   - RegisterRuntime: qlecd_runtime_* gauges that read
//     runtime/metrics when /metrics is scraped.
//
// Profiles are not kept here: a daemon started with -pprof serves
// net/http/pprof under /debug/pprof, read with go tool pprof.
// Everything is stdlib-only and registers into the internal/obs
// registry. Nothing here touches the simulation hot path.
package prof

import (
	"runtime/metrics"
	"time"

	"qlec/internal/obs"
)

// Usage is the resource bill for one unit of executed work (a job or
// a sweep cell). All fields are deltas over the execution bracket.
//
// CPUSeconds and AllocBytes are process-wide deltas: under concurrent
// workers a bracket also observes its neighbours' activity, so usage
// over-attributes on a busy daemon. That trade keeps the bracket at
// two syscalls + two metrics.Read calls instead of per-goroutine
// accounting; DESIGN.md §16 discusses why that is the right point.
type Usage struct {
	// CPUSeconds is user+system CPU time consumed by the process
	// during the bracket (getrusage, not runtime/metrics — the
	// /cpu/classes/* metrics only refresh at GC boundaries).
	CPUSeconds float64 `json:"cpuSeconds"`
	// WallSeconds is elapsed wall-clock time for the bracket.
	WallSeconds float64 `json:"wallSeconds"`
	// AllocBytes is the cumulative heap allocation delta
	// (/gc/heap/allocs:bytes). It is approximate: the runtime counts
	// small objects when a per-P allocation cache takes a fresh span
	// or flushes, so a short bracket that allocates from an already
	// cached span can read 0. CPUSeconds is the bill's reliable
	// non-zero field.
	AllocBytes uint64 `json:"allocBytes"`
	// PeakHeapDelta is live heap at End minus live heap at Begin,
	// floored at zero: endpoint growth, so a lower bound on the peak
	// growth during the bracket.
	PeakHeapDelta uint64 `json:"peakHeapDelta"`
	// GCCount is the number of completed GC cycles during the bracket.
	GCCount uint64 `json:"gcCount"`
}

// Add accumulates o into u (used to roll cells up into jobs and jobs
// up into batches). Wall time adds too: for work executed in parallel
// the sum exceeds elapsed time, the same convention as CPU seconds.
func (u *Usage) Add(o Usage) {
	u.CPUSeconds += o.CPUSeconds
	u.WallSeconds += o.WallSeconds
	u.AllocBytes += o.AllocBytes
	u.PeakHeapDelta += o.PeakHeapDelta
	u.GCCount += o.GCCount
}

// IsZero reports whether the bill is empty (e.g. a pure cache hit).
func (u Usage) IsZero() bool {
	return u.CPUSeconds == 0 && u.WallSeconds == 0 && u.AllocBytes == 0 &&
		u.PeakHeapDelta == 0 && u.GCCount == 0
}

// bracketSamples is the fixed runtime/metrics batch read at both ends
// of a bracket. Order matters: indexes are hard-coded below.
var bracketNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/memory/classes/heap/objects:bytes",
}

// Bracket measures resource usage between Begin and End.
type Bracket struct {
	start     time.Time
	cpu       float64
	allocs    uint64
	gcCycles  uint64
	heapLive  uint64
	samples   [3]metrics.Sample
	completed bool
}

// Begin starts a measurement bracket. The cost is one getrusage call
// and one runtime/metrics batch read (no stop-the-world).
func Begin() *Bracket {
	b := &Bracket{}
	for i, n := range bracketNames {
		b.samples[i].Name = n
	}
	metrics.Read(b.samples[:])
	b.start = time.Now()
	b.cpu = processCPUSeconds()
	b.allocs = b.samples[0].Value.Uint64()
	b.gcCycles = b.samples[1].Value.Uint64()
	b.heapLive = b.samples[2].Value.Uint64()
	return b
}

// End closes the bracket and returns the bill. Safe to call once;
// subsequent calls return a zero Usage.
func (b *Bracket) End() Usage {
	if b == nil || b.completed {
		return Usage{}
	}
	b.completed = true
	metrics.Read(b.samples[:])
	u := Usage{
		WallSeconds: time.Since(b.start).Seconds(),
	}
	if cpu := processCPUSeconds(); cpu > b.cpu {
		u.CPUSeconds = cpu - b.cpu
	}
	if a := b.samples[0].Value.Uint64(); a > b.allocs {
		u.AllocBytes = a - b.allocs
	}
	if g := b.samples[1].Value.Uint64(); g > b.gcCycles {
		u.GCCount = g - b.gcCycles
	}
	if h := b.samples[2].Value.Uint64(); h > b.heapLive {
		u.PeakHeapDelta = h - b.heapLive
	}
	return u
}

// RegisterRuntime registers the qlecd_runtime_* gauges on reg. Each
// reads runtime/metrics when /metrics is scraped; nothing runs between
// scrapes.
func RegisterRuntime(reg *obs.Registry) {
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
