package obs

// FleetMetrics instruments the qlecd fleet runtime: work stealing,
// cross-node cache proxying and lease lifecycle. Pool depth, roster
// gauges and the lease-expiry counter are exported by the service layer
// as callback collectors over its own state (the same pattern as
// serverMetrics), so this struct holds only the event counters the
// runtime increments inline.
type FleetMetrics struct {
	// CellsExecuted counts cells this daemon ran, by source: "local"
	// (acquired from its own pool) or "stolen" (leased from a peer).
	CellsExecuted *CounterVec
	// CellsStolenOut counts cells this daemon granted to thieves.
	CellsStolenOut *Counter
	// CellsStolenIn counts cells this daemon stole from peers.
	CellsStolenIn *Counter
	// ProxyHitsServed counts cache lookups this daemon answered for
	// peers as the hash's ring owner.
	ProxyHitsServed *Counter
	// ProxyHitsFetched counts results this daemon obtained from their
	// ring owner instead of recomputing.
	ProxyHitsFetched *Counter
	// CacheReplications counts result envelopes pushed to their ring
	// owner after execution.
	CacheReplications *Counter
	// CellsCompleted counts cells whose results this daemon accepted as
	// coordinator (first completion per cell; late duplicates from lease
	// races are not counted). Summing it across the peers' /metrics
	// gives the fleet's total completed cells exactly once.
	CellsCompleted *Counter
	// StealStarvation counts executor polls that found no work anywhere:
	// the local pool was empty and the steal round came back empty-handed.
	StealStarvation *Counter
	// CellWait observes how long each cell sat pooled before an executor
	// acquired it — the fleet-level analogue of the job queue-wait
	// histogram.
	CellWait *Histogram
}

// CellWaitBuckets match the job queue-wait buckets so one SLO bound
// addresses both histograms.
var CellWaitBuckets = []float64{0.001, 0.01, 0.1, 1, 10, 60, 600}

// NewFleetMetrics registers the fleet counters on r.
func NewFleetMetrics(r *Registry) *FleetMetrics {
	return &FleetMetrics{
		CellsExecuted: r.CounterVec("qlecd_fleet_cells_executed_total",
			"Sweep cells executed by this daemon, by work source.", "source"),
		CellsStolenOut: r.Counter("qlecd_fleet_cells_stolen_out_total",
			"Cells granted from this daemon's pool to stealing peers."),
		CellsStolenIn: r.Counter("qlecd_fleet_cells_stolen_in_total",
			"Cells this daemon stole from peers' pools."),
		ProxyHitsServed: r.Counter("qlecd_fleet_proxy_hits_served_total",
			"Cache lookups answered for peers as the hash's ring owner."),
		ProxyHitsFetched: r.Counter("qlecd_fleet_proxy_hits_fetched_total",
			"Results fetched from their ring owner instead of recomputing."),
		CacheReplications: r.Counter("qlecd_fleet_cache_replications_total",
			"Result envelopes replicated to their ring owner after execution."),
		CellsCompleted: r.Counter("qlecd_fleet_cells_completed_total",
			"Cells completed under this daemon's coordination (first completion per cell)."),
		StealStarvation: r.Counter("qlecd_fleet_steal_starvation_total",
			"Executor polls that found no local work and no stealable peer work."),
		CellWait: r.Histogram("qlecd_fleet_cell_wait_seconds",
			"Seconds each cell waited in the pool before an executor acquired it.",
			CellWaitBuckets),
	}
}
