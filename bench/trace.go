package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"qlec/internal/cluster"
	"qlec/internal/obs"
	"qlec/internal/qlearn"
	"qlec/internal/sim"
	"qlec/internal/stats"
)

// sampleStride times one in this many NextHop and OnOutcome calls. A
// time.Now pair costs about half of a Q-learning Decide, so timing every
// call would double the cost it measures; counting every call and
// timing a fixed stride keeps the traced run close to the untraced one.
const sampleStride = 16

// protoCost accumulates one protocol instance's call costs. An instance
// is driven by one engine goroutine, so the fields need no locking until
// the tracer merges them.
type protoCost struct {
	rounds                 int64
	startNS, endNS         int64
	routeCalls, routeTimed int64
	routeNS                int64
	learnCalls, learnTimed int64
	learnNS                int64
}

func (c *protoCost) merge(o protoCost) {
	c.rounds += o.rounds
	c.startNS += o.startNS
	c.endNS += o.endNS
	c.routeCalls += o.routeCalls
	c.routeTimed += o.routeTimed
	c.routeNS += o.routeNS
	c.learnCalls += o.learnCalls
	c.learnTimed += o.learnTimed
	c.learnNS += o.learnNS
}

// estimatedNS is the protocol's total time inside the engine: the timed
// round hooks plus the sampled per-packet calls scaled to every call.
func (c protoCost) estimatedNS() float64 {
	est := float64(c.startNS + c.endNS)
	if c.routeTimed > 0 {
		est += float64(c.routeNS) / float64(c.routeTimed) * float64(c.routeCalls)
	}
	if c.learnTimed > 0 {
		est += float64(c.learnNS) / float64(c.learnTimed) * float64(c.learnCalls)
	}
	return est
}

// timedProtocol is the timing decorator around a cluster.Protocol.
type timedProtocol struct {
	inner cluster.Protocol
	cost  protoCost
}

func (p *timedProtocol) Name() string                 { return p.inner.Name() }
func (p *timedProtocol) RelayMode() cluster.RelayMode { return p.inner.RelayMode() }

func (p *timedProtocol) StartRound(round int) []int {
	t := time.Now()
	heads := p.inner.StartRound(round)
	p.cost.startNS += int64(time.Since(t))
	p.cost.rounds++
	return heads
}

func (p *timedProtocol) EndRound(round int) {
	t := time.Now()
	p.inner.EndRound(round)
	p.cost.endNS += int64(time.Since(t))
}

func (p *timedProtocol) NextHop(node int) int {
	p.cost.routeCalls++
	if p.cost.routeCalls%sampleStride != 0 {
		return p.inner.NextHop(node)
	}
	t := time.Now()
	hop := p.inner.NextHop(node)
	p.cost.routeNS += int64(time.Since(t))
	p.cost.routeTimed++
	return hop
}

func (p *timedProtocol) OnOutcome(node, target int, success bool) {
	p.cost.learnCalls++
	if p.cost.learnCalls%sampleStride != 0 {
		p.inner.OnOutcome(node, target, success)
		return
	}
	t := time.Now()
	p.inner.OnOutcome(node, target, success)
	p.cost.learnNS += int64(time.Since(t))
	p.cost.learnTimed++
}

// learnerOwner is the accessor experiment.RunOne uses to attach an audit
// recorder to a Q-learning protocol.
type learnerOwner interface{ Learner() *qlearn.Learner }

// timedLearning forwards the optional interfaces of a Q-learning
// protocol (QLEC): geometry invalidation, Q statistics, and the learner.
type timedLearning struct{ *timedProtocol }

func (p timedLearning) InvalidateGeometry() {
	p.inner.(cluster.GeometryInvalidator).InvalidateGeometry()
}

func (p timedLearning) QLearningStats() (meanQ, epsilon float64, ok bool) {
	return p.inner.(sim.QLearningStats).QLearningStats()
}

func (p timedLearning) Learner() *qlearn.Learner { return p.inner.(learnerOwner).Learner() }

// timedStatic forwards cluster.StaticRouter (k-means, LEACH, T-DEEC,
// Q-LEACH).
type timedStatic struct{ *timedProtocol }

func (p timedStatic) StaticHops() []int { return p.inner.(cluster.StaticRouter).StaticHops() }

// wrapProtocol puts the timing decorator around p. The engine and the
// harness discover optional behaviour by type assertion, so the wrapper
// must implement exactly the optional interfaces p does; a combination
// no in-tree protocol has is refused rather than silently dropped.
func wrapProtocol(p cluster.Protocol) (cluster.Protocol, *timedProtocol, error) {
	t := &timedProtocol{inner: p}
	_, geo := p.(cluster.GeometryInvalidator)
	_, qs := p.(sim.QLearningStats)
	_, lo := p.(learnerOwner)
	_, sr := p.(cluster.StaticRouter)
	switch {
	case !geo && !qs && !lo && !sr:
		return t, t, nil
	case geo && qs && lo && !sr:
		return timedLearning{t}, t, nil
	case sr && !geo && !qs && !lo:
		return timedStatic{t}, t, nil
	}
	return nil, nil, fmt.Errorf("bench: protocol %s implements an optional-interface set the timing decorator does not forward", p.Name())
}

// tracer holds a traced run's spans and per-layer aggregates in memory;
// the spans are written as Chrome trace_event JSON when the run ends.
type tracer struct {
	mu     sync.Mutex
	spans  []obs.SpanRecord
	nextID int
	lanes  map[string][]bool // lane prefix → busy flags

	deployNS, deploys int64
	buildNS, builds   int64
	runNS             int64
	packets           int64
	cellMS            []float64
	protos            map[string]*protoCost
	extra             map[string][]float64 // named durations (ms) of workload-specific layers
}

func newTracer() *tracer {
	return &tracer{
		lanes:  map[string][]bool{},
		protos: map[string]*protoCost{},
		extra:  map[string][]float64{},
	}
}

// span is one open span; end records it.
type span struct {
	t     *tracer
	rec   obs.SpanRecord
	start time.Time
	root  bool // holds the lane slot, released at end
	lane  string
	slot  int
}

// root opens the top span of one operation's work on a lane. Concurrent
// roots with the same lane name get distinct numbered lanes, so the
// trace viewer shows overlapping work side by side.
func (t *tracer) root(op, lane, name string) *span {
	t.mu.Lock()
	busy := t.lanes[lane]
	slot := len(busy)
	for i, b := range busy {
		if !b {
			slot = i
			break
		}
	}
	if slot == len(busy) {
		busy = append(busy, false)
	}
	busy[slot] = true
	t.lanes[lane] = busy
	t.mu.Unlock()
	s := t.open(op, "", lane+"-"+strconv.Itoa(slot), name)
	s.root, s.lane, s.slot = true, lane, slot
	return s
}

// child opens a span caused by s, on s's lane. The child of a nil or
// untraced span only times itself, so a code path serves traced and
// untraced runs alike.
func (s *span) child(name string) *span {
	if s == nil || s.t == nil {
		return &span{start: time.Now()}
	}
	return s.t.open(s.rec.TraceID, s.rec.SpanID, s.rec.Instance, name)
}

func (t *tracer) open(op, parent, instance, name string) *span {
	t.mu.Lock()
	t.nextID++
	id := strconv.Itoa(t.nextID)
	t.mu.Unlock()
	return &span{
		t:     t,
		rec:   obs.SpanRecord{TraceID: op, SpanID: id, Parent: parent, Name: name, Instance: instance, Phase: "X"},
		start: time.Now(),
	}
}

// end closes the span and returns its duration.
func (s *span) end() time.Duration {
	d := time.Since(s.start)
	if s.t == nil {
		return d
	}
	s.rec.StartUS = s.start.UnixMicro()
	s.rec.DurUS = d.Microseconds()
	s.t.mu.Lock()
	if s.root {
		s.t.lanes[s.lane][s.slot] = false
	}
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
	return d
}

func (t *tracer) addExtra(name string, d time.Duration) {
	t.mu.Lock()
	t.extra[name] = append(t.extra[name], float64(d)/float64(time.Millisecond))
	t.mu.Unlock()
}

// addRun folds one engine run into the aggregates.
func (t *tracer) addRun(p *timedProtocol, deploy, build, run time.Duration, packets int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.deployNS += int64(deploy)
	t.deploys++
	t.buildNS += int64(build)
	t.builds++
	t.runNS += int64(run)
	t.packets += int64(packets)
	name := p.Name()
	if t.protos[name] == nil {
		t.protos[name] = &protoCost{}
	}
	t.protos[name].merge(p.cost)
}

func (t *tracer) addCell(d time.Duration) {
	t.mu.Lock()
	t.cellMS = append(t.cellMS, float64(d)/float64(time.Millisecond))
	t.mu.Unlock()
}

// addLayers reports the library and engine layer metrics gathered from
// the traced simulation units ("cells"). passWall is the wall time of
// the traced passes that ran them on the workers-sized pool. Without a
// single traced unit it reports nothing, and the run fails for the
// missing metrics.
func (t *tracer) addLayers(r *report, passWall time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	units := len(t.cellMS)
	if units == 0 {
		return
	}
	busy := 0.0
	for _, c := range t.cellMS {
		busy += c
	}
	r.add("experiment.cell_ms_p50", stats.Median(t.cellMS), "ms", units)
	r.add("experiment.cell_ms_p90", stats.Quantile(t.cellMS, 0.9), "ms", units)
	r.add("runner.busy_frac", busy/(float64(passWall)/float64(time.Millisecond)*workers), "ratio", units)
	r.add("network.deploy_ms", float64(t.deployNS)/float64(t.deploys)/1e6, "ms", int(t.deploys))
	r.add("protocol.build_ms", float64(t.buildNS)/float64(t.builds)/1e6, "ms", int(t.builds))

	// The JSON carries the sums over all protocols; the text lines add the
	// per-protocol cost of each call.
	var all protoCost
	for _, c := range t.protos {
		all.merge(*c)
	}
	addCost := func(prefix string, c protoCost) {
		r.add("chsel."+prefix+"ms_per_round", float64(c.startNS)/float64(c.rounds)/1e6, "ms", int(c.rounds))
		r.add("route."+prefix+"ns_per_call", perCall(c.routeNS, c.routeTimed), "ns", int(c.routeTimed))
		r.add("learn."+prefix+"ns_per_call", perCall(c.learnNS, c.learnTimed), "ns", int(c.learnTimed))
		r.add("endround."+prefix+"ms_per_round", float64(c.endNS)/float64(c.rounds)/1e6, "ms", int(c.rounds))
	}
	addCost("", all)
	r.add("route.calls_per_op", float64(all.routeCalls)/float64(units), "count", units)
	r.add("learn.calls_per_op", float64(all.learnCalls)/float64(units), "count", units)
	for _, name := range sortedKeys(t.protos) {
		addCost(name+".", *t.protos[name])
	}
	r.add("sim.self_ns_per_packet", (float64(t.runNS)-all.estimatedNS())/float64(t.packets), "ns", int(t.packets))
	r.add("sim.packets_per_op", float64(t.packets)/float64(units), "count", units)
	for _, name := range sortedKeys(t.extra) {
		r.add(name, stats.Median(t.extra[name]), "ms", len(t.extra[name]))
	}
}

func perCall(ns, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeFile writes the spans as Chrome trace_event JSON.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	err = obs.WriteChromeTrace(f, t.spans)
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
