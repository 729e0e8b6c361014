package service

import "qlec/internal/obs"

// serverMetrics holds qlecd's operational instruments. Scrape-time
// state (queue depth, job-table counts, cache counters) is exported via
// callback collectors reading the server's existing atomics.
type serverMetrics struct {
	queueWait   *obs.Histogram    // seconds from submit to first execution start
	jobDuration *obs.HistogramVec // {kind, state} execution wall time
	jobsTotal   *obs.CounterVec   // {state} terminal transitions
	busyWorkers *obs.Gauge
	sseSubs     *obs.Gauge
	// jobs counts jobs by state, the ones only the journal still holds
	// included; setStateLocked moves them.
	jobs map[JobState]*obs.Gauge
}

// queueWaitBuckets span instant dequeues to long backlogs; job-duration
// buckets reach the multi-minute sweeps qlecd exists to run.
var (
	queueWaitBuckets   = []float64{0.001, 0.01, 0.1, 1, 10, 60, 600}
	jobDurationBuckets = []float64{0.01, 0.1, 1, 10, 60, 600, 3600}
)

func newServerMetrics(r *obs.Registry, s *Server) *serverMetrics {
	m := &serverMetrics{
		queueWait: r.Histogram("qlecd_job_queue_wait_seconds",
			"Seconds a job waited in the queue before its first execution attempt.",
			queueWaitBuckets),
		jobDuration: r.HistogramVec("qlecd_job_duration_seconds",
			"Job execution wall time in seconds, by kind and terminal state.",
			jobDurationBuckets, "kind", "state"),
		jobsTotal: r.CounterVec("qlecd_jobs_total",
			"Jobs reaching a terminal state.", "state"),
		busyWorkers: r.Gauge("qlecd_workers_busy",
			"Workers currently executing a job."),
		sseSubs: r.Gauge("qlecd_sse_subscribers",
			"Open SSE event streams."),
	}
	r.GaugeFunc("qlecd_queue_depth", "Jobs waiting in the dispatch queue.",
		func() float64 { return float64(s.queue.depth()) })
	r.GaugeFunc("qlecd_workers", "Configured worker pool size.",
		func() float64 { return float64(s.opt.Workers) })
	r.GaugeFunc("qlecd_draining", "1 while a graceful drain is in progress.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	r.CounterFunc("qlecd_cache_hits_total", "Result-cache hits (including in-flight coalescing).",
		func() float64 { h, _ := s.cache.stats(); return float64(h) })
	r.CounterFunc("qlecd_cache_misses_total", "Result-cache misses.",
		func() float64 { _, m := s.cache.stats(); return float64(m) })
	r.CounterFunc("qlecd_simulations_total", "Simulations actually executed (cache hits excluded).",
		func() float64 { return float64(s.simsRun.Load()) })
	jobs := r.GaugeVec("qlecd_jobs", "Jobs in the table, by lifecycle state.", "state")
	m.jobs = make(map[JobState]*obs.Gauge)
	for _, st := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		m.jobs[st] = jobs.With(string(st))
	}
	return m
}

// protocolLabel folds a request's protocol list into one bounded
// profile-label value: the protocol for single-protocol runs, "multi" for
// comparison figures that run several.
func protocolLabel(req Request) string {
	switch len(req.Protocols) {
	case 0:
		return "default"
	case 1:
		return string(req.Protocols[0])
	default:
		return "multi"
	}
}

// newFleetCollectors exports the fleet pool, roster and span store as
// callback collectors over the runtime's own state, mirroring serverMetrics'
// pattern (the event counters live in obs.FleetMetrics).
func newFleetCollectors(r *obs.Registry, s *Server) {
	r.GaugeFunc("qlecd_fleet_cells_pending", "Cells awaiting a lease in the local pool.",
		func() float64 { p, _, _ := s.fleet.table.Stats(); return float64(p) })
	r.GaugeFunc("qlecd_fleet_cells_leased", "Cells currently out on lease from the local pool.",
		func() float64 { _, l, _ := s.fleet.table.Stats(); return float64(l) })
	r.CounterFunc("qlecd_fleet_lease_expiries_total", "Leases that expired and returned their cell to the pool.",
		func() float64 { _, _, e := s.fleet.table.Stats(); return float64(e) })
	r.GaugeFunc("qlecd_fleet_peers_ready", "Fleet peers currently passing readiness probes (self included).",
		func() float64 {
			n := 0
			for _, p := range s.fleet.members.Peers() {
				if p.Ready {
					n++
				}
			}
			return float64(n)
		})
	r.GaugeFunc("qlecd_traces_held", "Traces currently retained in the span store (FIFO-capped by -trace-history).",
		func() float64 { return float64(s.fleet.spans.Traces()) })
	r.GaugeFunc("qlecd_batches_open", "Batches not yet in a terminal state.",
		func() float64 { return float64(s.openBatches()) })
}
