// Package obs is the repo's unified observability layer: a stdlib-only
// Prometheus-text-format metric registry (counters, gauges, histograms,
// label vectors, callback collectors), structured-logging helpers over
// log/slog with X-Request-ID propagation, an HTTP middleware that ties
// the two together, a bounded span store exporting Chrome
// trace_event JSON (loadable in chrome://tracing / Perfetto), the
// FIFO-bounded map that store and qlecd's artifact tables share, and an
// adapter that turns the simulation engine's per-round Observer stream
// into live protocol gauges.
//
// Everything is concurrency-safe and deliberately dependency-free: the
// registry writes the Prometheus exposition format directly (golden-
// tested in registry_test.go and linted by Lint, a promtool-style check
// with no external binaries). Metric naming and label-cardinality rules
// are documented in DESIGN.md §10.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Registry holds metric families and renders them in the Prometheus
// text exposition format. All methods are safe for concurrent use.
// Registration is idempotent by (name, type, label names): asking for an
// existing collector returns it, while re-registering a name under a
// different type or label set panics — that is a programming error the
// exposition format cannot represent.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family is one metric name: its metadata plus every labelled child.
type family struct {
	name       string
	help       string
	mtype      string // "counter", "gauge", "histogram"
	labelNames []string
	buckets    []float64 // histograms only

	mu       sync.Mutex
	children map[string]*child // key = rendered label block ("" for none)
	order    []string          // insertion-ordered keys, sorted at write
}

// child is one time series: a value cell, a callback, or histogram
// state, with its rendered label block.
type child struct {
	labels string // `{k="v",...}` or ""

	bits atomic.Uint64  // float64 bits (counter/gauge)
	fn   func() float64 // callback collectors (nil otherwise)
	hist *histogramData // histograms (nil otherwise)
}

type histogramData struct {
	upper   []float64 // sorted upper bounds, +Inf excluded
	counts  []atomic.Uint64
	inf     atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// addFloat atomically adds delta to the float64 stored in bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

func (r *Registry) lookup(name, help, mtype string, labelNames []string, buckets []float64) *family {
	if !metricNameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labelNames {
		if !labelNameRe.MatchString(l) || l == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.mtype != mtype || !equalStrings(f.labelNames, labelNames) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
				name, mtype, labelNames, f.mtype, f.labelNames))
		}
		return f
	}
	f := &family{
		name: name, help: help, mtype: mtype,
		labelNames: append([]string(nil), labelNames...),
		buckets:    buckets,
		children:   make(map[string]*child),
	}
	r.fams[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// childFor returns (creating if needed) the series for the given label
// values; values must match the family's declared label names.
func (f *family) childFor(values []string) *child {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q takes %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := renderLabels(f.labelNames, values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{labels: key}
	if f.mtype == "histogram" {
		c.hist = &histogramData{
			upper:  f.buckets,
			counts: make([]atomic.Uint64, len(f.buckets)),
		}
	}
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// renderLabels renders a label block like `{a="x",b="y"}` with
// exposition-format escaping; empty input renders "".
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// Counter is a monotonically increasing value.
type Counter struct{ c *child }

// Inc adds 1.
func (c *Counter) Inc() { addFloat(&c.c.bits, 1) }

// Add adds v; negative deltas panic (counters only go up).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("obs: counter decrease")
	}
	addFloat(&c.c.bits, v)
}

// Gauge is a value that can go up and down.
type Gauge struct{ c *child }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.c.bits.Store(math.Float64bits(v)) }

// Add adds v (negative ok).
func (g *Gauge) Add(v float64) { addFloat(&g.c.bits, v) }

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Histogram samples observations into cumulative buckets with declared
// upper bounds (le is inclusive, per the exposition format).
type Histogram struct{ c *child }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	d := h.c.hist
	// First bucket whose upper bound is >= v; a value exactly on a
	// boundary lands in that boundary's bucket (le is inclusive).
	i := sort.SearchFloat64s(d.upper, v)
	if i < len(d.upper) {
		d.counts[i].Add(1)
	} else {
		d.inf.Add(1)
	}
	d.count.Add(1)
	addFloat(&d.sumBits, v)
}

// Counter registers (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return &Counter{r.lookup(name, help, "counter", nil, nil).childFor(nil)}
}

// Gauge registers (or fetches) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return &Gauge{r.lookup(name, help, "gauge", nil, nil).childFor(nil)}
}

// Histogram registers (or fetches) an unlabelled histogram with the
// given upper bounds (sorted ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return &Histogram{r.histFamily(name, help, nil, buckets).childFor(nil)}
}

func (r *Registry) histFamily(name, help string, labels []string, buckets []float64) *family {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket", name))
	}
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("obs: histogram %q buckets not sorted", name))
	}
	return r.lookup(name, help, "histogram", labels, append([]float64(nil), buckets...))
}

// CounterVec is a counter family with declared label names.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.lookup(name, help, "counter", labelNames, nil)}
}

// With returns the child counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	return &Counter{v.f.childFor(values)}
}

// GaugeVec is a gauge family with declared label names.
type GaugeVec struct{ f *family }

// GaugeVec registers (or fetches) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{r.lookup(name, help, "gauge", labelNames, nil)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return &Gauge{v.f.childFor(values)}
}

// HistogramVec is a histogram family with declared label names; every
// child shares the declared buckets.
type HistogramVec struct{ f *family }

// HistogramVec registers (or fetches) a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{r.histFamily(name, help, labelNames, buckets)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return &Histogram{v.f.childFor(values)}
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time — for state that already lives elsewhere (queue depth, job-table
// counts). labelPairs is an alternating key,value list identifying this
// series within the family, so one name can carry several callbacks
// (e.g. a jobs gauge per lifecycle state).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.funcSeries(name, help, "gauge", fn, labelPairs)
}

// CounterFunc registers a counter read from fn at scrape time; fn must
// be monotonically non-decreasing (e.g. an existing atomic counter).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.funcSeries(name, help, "counter", fn, labelPairs)
}

func (r *Registry) funcSeries(name, help, mtype string, fn func() float64, labelPairs []string) {
	if len(labelPairs)%2 != 0 {
		panic(fmt.Sprintf("obs: %s: label pairs must alternate key,value", name))
	}
	names := make([]string, 0, len(labelPairs)/2)
	values := make([]string, 0, len(labelPairs)/2)
	for i := 0; i < len(labelPairs); i += 2 {
		names = append(names, labelPairs[i])
		values = append(values, labelPairs[i+1])
	}
	f := r.lookup(name, help, mtype, names, nil)
	c := f.childFor(values)
	f.mu.Lock()
	c.fn = fn
	f.mu.Unlock()
}
