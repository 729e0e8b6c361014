package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"qlec/internal/experiment"
	"qlec/internal/obs"
	"qlec/internal/service"
	"qlec/internal/stats"
)

// fleetCounters are the exposition samples a traced fleet repetition
// diffs on every peer.
var fleetCounters = []string{
	"qlecd_http_requests_total", "qlecd_simulations_total",
	"qlecd_fleet_cells_stolen_in_total", "qlecd_fleet_steal_starvation_total",
	"qlecd_fleet_lease_expiries_total", "qlecd_fleet_cache_replications_total",
	"qlecd_fleet_cell_wait_seconds_sum", "qlecd_fleet_cell_wait_seconds_count",
}

// fleetRep is one repetition's measurements.
type fleetRep struct {
	setup, wall time.Duration
	peakMB      float64            // the process's peak RSS during the repetition
	outs        [][]byte           // each config's fig3 payload, in batch order
	counters    map[string]float64 // summed over peers (traced repetitions)
	executed    []float64          // cells executed per peer (traced repetitions)
}

// fleetBatch boots a fresh two-peer fleet per repetition and runs
// paper-sweep's cells through it as one /v1/batches submission of five
// fig3 configs, one seed each.
func fleetBatch(ctx context.Context, o runOpts) (*report, error) {
	r := &report{workload: "fleet-batch"}
	ids := o.scale.protocols
	var reqs []service.Request
	var specs []experiment.CellSpec
	for _, seed := range seedBlock(o.seed, 5) {
		cfg := o.scale.sweep
		cfg.Seeds = []uint64{seed}
		s, err := cfg.Fig3Cells(ids)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s...)
		reqs = append(reqs, service.Request{Kind: service.KindFig3, Config: cfg, Protocols: ids})
	}
	cells := len(specs)
	perConfig := cells / len(reqs)

	var want [][]byte
	check := func(rep fleetRep, err error) bool {
		r.ops(cells)
		if err != nil {
			r.fail(cells, "batch: %v", err)
			return false
		}
		if want == nil {
			want = rep.outs
		}
		for i := range want {
			if !bytes.Equal(rep.outs[i], want[i]) {
				r.fail(perConfig, "config %d: output differs from the first batch's", i)
			}
		}
		return true
	}
	phases := func(t *tracer) []fleetRep {
		phase := o.seconds
		if o.trace != nil {
			phase /= 2
		}
		var reps []fleetRep
		deadline := time.Now().Add(phase)
		for i := 0; i < o.scale.minReps || time.Now().Before(deadline); i++ {
			rep, err := runFleetRep(ctx, o, reqs, t, fmt.Sprintf("batch%d", i))
			if check(rep, err) {
				reps = append(reps, rep)
			}
		}
		return reps
	}

	before := readRuntimeCost()
	reps := phases(nil)
	if len(reps) == 0 {
		return nil, fmt.Errorf("every batch failed: %s", r.problems[0])
	}
	if o.trace != nil {
		r.addRuntimeCost(before, len(reps)*cells)
	}
	var setups, walls []time.Duration
	var peaks []float64
	for _, rep := range reps {
		setups = append(setups, rep.setup)
		walls = append(walls, rep.wall)
		peaks = append(peaks, rep.peakMB)
	}
	fleetRate := float64(cells) / (stats.Median(ms(walls)) / 1000)

	// The reference: the same cells through raw runner.Map, whose
	// throughput is what the fleet layer costs against.
	start := time.Now()
	raw, err := mapCells(ctx, nil, specs, "")
	rawWall := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("reference cells: %w", err)
	}
	if err := compareConfigs(r, reqs, raw, want); err != nil {
		return nil, err
	}
	r.add("fleet.overhead_frac", 1-fleetRate/(float64(cells)/rawWall.Seconds()), "ratio", len(walls))

	if o.trace == nil {
		r.addEndToEnd(setups, fleetRate, len(walls), walls, peaks)
		return r, nil
	}

	treps := phases(o.trace)
	if len(treps) == 0 {
		return nil, fmt.Errorf("every traced batch failed: %s", r.problems[len(r.problems)-1])
	}
	var twalls []time.Duration
	sum := map[string]float64{}
	shareMin := 1.0
	for _, rep := range treps {
		twalls = append(twalls, rep.wall)
		for k, v := range rep.counters {
			sum[k] += v / float64(len(treps))
		}
		executed := 0.0
		for _, e := range rep.executed {
			executed += e
		}
		for _, e := range rep.executed {
			shareMin = min(shareMin, e/executed)
		}
	}
	r.addOverhead(ms(walls), ms(twalls))

	start = time.Now()
	traced, err := mapCells(ctx, o.trace, specs, "reference")
	passWall := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("traced reference cells: %w", err)
	}
	if err := compareConfigs(r, reqs, traced, want); err != nil {
		return nil, err
	}
	o.trace.addLayers(r, passWall)
	o.trace.addCallMetrics(r)
	n := len(treps)
	r.add("http.requests_per_op", sum["qlecd_http_requests_total"]/float64(cells), "count", n)
	r.add("service.simulations_per_op", sum["qlecd_simulations_total"]/float64(cells), "count", n)
	r.add("fleet.cells_stolen", sum["qlecd_fleet_cells_stolen_in_total"], "count/batch", n)
	r.add("fleet.steal_starvation", sum["qlecd_fleet_steal_starvation_total"], "count/batch", n)
	r.add("fleet.cache_replications", sum["qlecd_fleet_cache_replications_total"], "count/batch", n)
	r.add("fleet.cell_wait_ms_mean", 1000*sum["qlecd_fleet_cell_wait_seconds_sum"]/sum["qlecd_fleet_cell_wait_seconds_count"], "ms", n)
	r.add("fleet.cells_executed_share_min", shareMin, "ratio", n)
	if sum["qlecd_fleet_lease_expiries_total"] != 0 {
		r.fail(cells, "%v lease expiries per batch on a healthy fleet", sum["qlecd_fleet_lease_expiries_total"])
	}
	return r, nil
}

// compareConfigs assembles reference cell outcomes per config and fails
// the cells of every config whose fleet output differs.
func compareConfigs(r *report, reqs []service.Request, cells []experiment.CellOutcome, want [][]byte) error {
	per := len(cells) / len(reqs)
	for i, req := range reqs {
		r.ops(per)
		got, err := fig3JSON(req.Config, req.Protocols, cells[i*per:(i+1)*per])
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want[i]) {
			r.fail(per, "config %d: fleet output differs from the library's", i)
		}
	}
	return nil
}

// runFleetRep boots two peers (the second joins through the first),
// waits until both see the whole roster, and runs the batch through the
// first. On traced repetitions the client calls record spans and every
// peer's exposition is diffed around the batch.
func runFleetRep(ctx context.Context, o runOpts, reqs []service.Request, t *tracer, op string) (fleetRep, error) {
	var rep fleetRep
	resetPeakRSS()
	start := time.Now()
	hc := httpClient(t != nil)
	opt := qlecdOptions()
	opt.Workers = 1
	opt.Fleet.CellWorkers = 1
	opt.Fleet.ProbeInterval = o.scale.probe
	first, err := startDaemon(ctx, opt, true, hc)
	if err != nil {
		return rep, err
	}
	defer first.close()
	opt.Fleet.Join = first.url
	second, err := startDaemon(ctx, opt, true, hc)
	if err != nil {
		return rep, err
	}
	defer second.close()
	peers := []*daemon{first, second}
	if err := waitRoster(ctx, peers); err != nil {
		return rep, err
	}
	rep.setup = time.Since(start)

	var before []*obs.Exposition
	if t != nil {
		for _, p := range peers {
			m, err := p.scrape(ctx)
			if err != nil {
				return rep, err
			}
			before = append(before, m)
		}
		s := t.root(op, "client", "batch")
		defer s.end()
		ctx = withSpan(ctx, s)
	}
	start = time.Now()
	rep.outs, err = runBatch(ctx, first, reqs)
	rep.wall = time.Since(start)
	rep.peakMB = peakRSSMB()
	if err != nil || t == nil {
		return rep, err
	}
	rep.counters = map[string]float64{}
	for i, p := range peers {
		m, err := p.scrape(ctx)
		if err != nil {
			return rep, err
		}
		for k, v := range countersDelta(before[i], m, fleetCounters...) {
			rep.counters[k] += v
		}
		// The first scrape is itself a request the second one counts.
		rep.counters["qlecd_http_requests_total"]--
		rep.executed = append(rep.executed, sampleSum(m, "qlecd_fleet_cells_executed_total"))
	}
	return rep, nil
}

// waitRoster polls each peer's exposition until it reports every peer
// ready.
func waitRoster(ctx context.Context, peers []*daemon) error {
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	for _, p := range peers {
		for {
			m, err := p.scrape(ctx)
			if err != nil {
				return err
			}
			if int(sampleSum(m, "qlecd_fleet_peers_ready")) >= len(peers) {
				break
			}
			select {
			case <-time.After(5 * time.Millisecond):
			case <-ctx.Done():
				return fmt.Errorf("fleet roster never converged: %w", ctx.Err())
			}
		}
	}
	return nil
}

// runBatch submits the batch, follows its event stream to the terminal
// state, and downloads every config's result.
func runBatch(ctx context.Context, d *daemon, reqs []service.Request) ([][]byte, error) {
	b, err := d.cl.SubmitBatch(ctx, reqs)
	if err != nil {
		return nil, err
	}
	if err := d.cl.BatchEvents(ctx, b.ID, func(service.Event) bool { return true }); err != nil {
		return nil, err
	}
	if b, err = d.cl.Batch(ctx, b.ID); err != nil {
		return nil, err
	}
	if b.State != service.StateDone || b.Failed > 0 {
		return nil, fmt.Errorf("batch %s %s with %d failed configs", b.ID, b.State, b.Failed)
	}
	outs := make([][]byte, len(b.Configs))
	for i, c := range b.Configs {
		env, err := d.cl.Result(ctx, c.Hash)
		if err != nil {
			return nil, err
		}
		if outs[i], err = json.Marshal(env.Fig3); err != nil {
			return nil, err
		}
	}
	return outs, nil
}
