package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"time"

	"qlec/internal/experiment"
	"qlec/internal/runner"
	"qlec/internal/service"
	"qlec/internal/service/client"
	"qlec/internal/stats"
)

// job is one request the load generator sent, and what came back. The
// output is kept as its digest, so the load generator's memory does not
// grow with the results it has checked.
type job struct {
	class    string // "miss", "hit" or "sweep"
	req      service.Request
	orig     *job // for a hit: the miss it repeats
	out      [sha256.Size]byte
	cacheHit bool
	wall     time.Duration
	err      error
}

// serviceMixed drives an in-process qlecd with a closed loop of two
// clients. Half of the single-run jobs are planned cache hits, each
// repeating one of its client's own completed misses; one job in
// sweepEvery is a small fig3 sweep.
func serviceMixed(ctx context.Context, o runOpts) (*report, error) {
	r := &report{workload: "service-mixed"}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, err
	}
	var dirs []string
	defer func() {
		for _, d := range dirs {
			removeAll(d)
		}
	}()
	boot := func(traced bool) (*daemon, error) {
		dir, err := os.MkdirTemp(o.scratch, "qlecd-")
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, dir)
		opt := qlecdOptions()
		opt.DataDir = dir
		return startDaemon(ctx, opt, false, httpClient(traced))
	}

	// Several boots give setup_s its median; the last daemon serves the
	// load.
	var booted []*daemon
	setups, err := timeEach(setupSamples, func() error {
		d, err := boot(false)
		if err == nil {
			booted = append(booted, d)
		}
		return err
	})
	for i, d := range booted {
		if err != nil || i < len(booted)-1 {
			d.close()
		}
	}
	if err != nil {
		return nil, err
	}
	d := booted[len(booted)-1]
	phase := o.seconds
	if o.trace != nil {
		phase /= 2
	}
	before := readRuntimeCost()
	resetPeakRSS()
	jobs, wall := loadPhase(ctx, d, o, phase, nil)
	peak := peakRSSMB()
	d.close()
	checkJobs(r, jobs)
	if o.trace == nil {
		all := flatten(jobs)
		lat := make([]time.Duration, len(all))
		for i, j := range all {
			lat[i] = j.wall
		}
		r.addEndToEnd(setups, float64(len(all))/wall.Seconds(), len(all), lat, []float64{peak})
		addJobMetrics(r, all, wall)
		_, err := referenceJobs(ctx, r, nil, sampleJobs(jobs))
		return r, err
	}

	all := flatten(jobs)
	r.addRuntimeCost(before, len(all))
	d, err = boot(true)
	if err != nil {
		return nil, err
	}
	m0, err := d.scrape(ctx)
	if err != nil {
		d.close()
		return nil, err
	}
	tjobs, twall := loadPhase(ctx, d, o, phase, o.trace)
	m1, err := d.scrape(ctx)
	d.close()
	if err != nil {
		return nil, err
	}
	checkJobs(r, tjobs)
	tall := flatten(tjobs)
	r.addOverhead([]float64{wall.Seconds() / float64(len(all))}, []float64{twall.Seconds() / float64(len(tall))})
	passWall, err := referenceJobs(ctx, r, o.trace, sampleJobs(tjobs))
	if err != nil {
		return nil, err
	}
	o.trace.addLayers(r, passWall)
	o.trace.addCallMetrics(r)
	n := float64(len(tall))
	c := countersDelta(m0, m1,
		"qlecd_http_requests_total", "qlecd_simulations_total",
		"qlecd_cache_hits_total", "qlecd_cache_misses_total",
		"qlecd_job_queue_wait_seconds_sum", "qlecd_job_queue_wait_seconds_count",
		"qlecd_job_duration_seconds_sum", "qlecd_job_duration_seconds_count")
	// The first scrape is itself a request the second one counts.
	r.add("http.requests_per_op", (c["qlecd_http_requests_total"]-1)/n, "count", len(tall))
	r.add("service.simulations_per_op", c["qlecd_simulations_total"]/n, "count", len(tall))
	r.add("service.cache_hit_ratio", c["qlecd_cache_hits_total"]/(c["qlecd_cache_hits_total"]+c["qlecd_cache_misses_total"]), "ratio", len(tall))
	r.add("service.queue_wait_ms_mean", 1000*c["qlecd_job_queue_wait_seconds_sum"]/c["qlecd_job_queue_wait_seconds_count"], "ms", int(c["qlecd_job_queue_wait_seconds_count"]))
	r.add("service.job_run_ms_mean", 1000*c["qlecd_job_duration_seconds_sum"]/c["qlecd_job_duration_seconds_count"], "ms", int(c["qlecd_job_duration_seconds_count"]))
	r.addZero("count/batch", "fleet.cells_stolen", "fleet.steal_starvation", "fleet.cache_replications")
	return r, nil
}

// loadPhase runs the two clients against d until phase has elapsed and
// each has sent at least minJobs jobs. It returns each client's jobs in
// order and the phase's wall time.
func loadPhase(ctx context.Context, d *daemon, o runOpts, phase time.Duration, t *tracer) ([][]*job, time.Duration) {
	start := time.Now()
	deadline := start.Add(phase)
	jobs := make([][]*job, workers)
	var wg sync.WaitGroup
	for c := range jobs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			jobs[c] = clientLoop(ctx, d.cl, o, c, deadline, t)
		}(c)
	}
	wg.Wait()
	return jobs, time.Since(start)
}

// clientLoop is one closed-loop client: each job is sent after the
// previous one completed. The job sequence depends only on the seed
// block and the client's index.
func clientLoop(ctx context.Context, cl *client.Client, o runOpts, c int, deadline time.Time, t *tracer) []*job {
	pick := rand.New(rand.NewPCG(o.seed, uint64(c)))
	protocols := []experiment.ProtocolID{experiment.QLEC, experiment.KMeans}
	lambdas := []float64{4, 8}
	var jobs, misses []*job
	for i := 0; i < o.scale.minJobs || time.Now().Before(deadline); i++ {
		j := &job{class: "miss"}
		switch {
		case i%o.scale.sweepEvery == o.scale.sweepEvery/2:
			cfg := o.scale.job
			cfg.Lambdas = []float64{4}
			cfg.Seeds = []uint64{pick.Uint64(), pick.Uint64()}
			j.class = "sweep"
			j.req = service.Request{Kind: service.KindFig3, Config: cfg, Protocols: protocols}
		case i%2 == 1 && len(misses) > 0:
			j.orig = misses[pick.IntN(len(misses))]
			j.class, j.req = "hit", j.orig.req
		default:
			j.req = service.Request{
				Kind:      service.KindOne,
				Config:    o.scale.job,
				Protocols: []experiment.ProtocolID{protocols[pick.IntN(2)]},
				Lambda:    lambdas[pick.IntN(2)],
				Seed:      pick.Uint64(),
			}
		}
		runJob(ctx, cl, j, t, fmt.Sprintf("client%d-job%d", c, i))
		jobs = append(jobs, j)
		if j.class == "miss" && j.err == nil {
			misses = append(misses, j)
		}
	}
	return jobs
}

// runJob sends one job and waits for its result: submit, follow the
// event stream to the terminal state, download the result.
func runJob(ctx context.Context, cl *client.Client, j *job, t *tracer, op string) {
	if t != nil {
		s := t.root(op, "client", j.class)
		defer s.end()
		ctx = withSpan(ctx, s)
	}
	start := time.Now()
	var payload any
	if j.req.Kind == service.KindOne {
		res, rec, err := cl.RunOne(ctx, j.req, nil)
		if err == nil {
			payload, j.cacheHit = res, rec.CacheHit
		}
		j.err = err
	} else {
		payload, j.cacheHit, j.err = runSweepJob(ctx, cl, j.req)
	}
	j.wall = time.Since(start)
	if j.err == nil {
		var b []byte
		b, j.err = json.Marshal(payload)
		j.out = sha256.Sum256(b)
	}
}

// runSweepJob drives a fig3 job the way client.RunOne drives a single
// run, and returns its sweep payload.
func runSweepJob(ctx context.Context, cl *client.Client, req service.Request) (any, bool, error) {
	j, err := cl.Submit(ctx, req)
	if err != nil {
		return nil, false, err
	}
	if !j.State.Terminal() {
		if err := cl.Events(ctx, j.ID, func(service.Event) bool { return true }); err != nil {
			return nil, false, err
		}
		if j, err = cl.Wait(ctx, j.ID, 0); err != nil {
			return nil, false, err
		}
	}
	if j.State != service.StateDone {
		return nil, false, fmt.Errorf("job %s %s: %s", j.ID, j.State, j.Error)
	}
	env, err := cl.Result(ctx, j.Hash)
	if err != nil {
		return nil, false, err
	}
	return env.Fig3, j.CacheHit, nil
}

func flatten(jobs [][]*job) []*job {
	var all []*job
	for _, js := range jobs {
		all = append(all, js...)
	}
	return all
}

// checkJobs counts every job and fails those that errored, planned hits
// that were not served from the cache or differ from the miss they
// repeat, and planned misses that were.
func checkJobs(r *report, jobs [][]*job) {
	for _, j := range flatten(jobs) {
		r.ops(1)
		switch {
		case j.err != nil:
			r.fail(1, "%s job: %v", j.class, j.err)
		case j.class == "hit" && !j.cacheHit:
			r.fail(1, "planned hit was not served from the cache")
		case j.class == "hit" && j.out != j.orig.out:
			r.fail(1, "cache hit returned other bytes than the miss it repeats")
		case j.class != "hit" && j.cacheHit:
			r.fail(1, "planned %s was answered from the cache", j.class)
		}
	}
}

// sampleJobs picks every tenth job that ran a simulation (misses and
// sweeps) of each client, for the reference check.
func sampleJobs(jobs [][]*job) []*job {
	var out []*job
	for _, js := range jobs {
		k := 0
		for _, j := range js {
			if j.class == "hit" || j.err != nil {
				continue
			}
			if k%10 == 0 {
				out = append(out, j)
			}
			k++
		}
	}
	return out
}

// referenceJobs recomputes jobs through the library on the workers-sized
// runner pool — single runs through Config.RunOne, sweeps cell by cell —
// traced when t is non-nil, and fails every job whose service output
// differs. It returns the pass's wall time.
func referenceJobs(ctx context.Context, r *report, t *tracer, jobs []*job) (time.Duration, error) {
	type unit struct {
		req  service.Request
		spec *experiment.CellSpec
	}
	type outcome struct {
		out  []byte
		cell experiment.CellOutcome
		err  error
	}
	var units []unit
	first := make([]int, len(jobs)+1) // job i owns units[first[i]:first[i+1]]
	for i, j := range jobs {
		first[i] = len(units)
		req := j.req.Normalize()
		if req.Kind == service.KindOne {
			units = append(units, unit{req: req})
			continue
		}
		specs, err := req.Config.Fig3Cells(req.Protocols)
		if err != nil {
			return 0, err
		}
		for k := range specs {
			units = append(units, unit{req: req, spec: &specs[k]})
		}
	}
	first[len(jobs)] = len(units)

	start := time.Now()
	outs, _ := runner.Map(ctx, len(units), runner.Options{Workers: workers},
		func(ctx context.Context, i int) (outcome, error) {
			u := units[i]
			op := fmt.Sprintf("reference%d", i)
			if u.spec != nil {
				if t != nil {
					cell, err := t.tracedCell(ctx, *u.spec, op)
					return outcome{cell: cell, err: err}, nil
				}
				cell, err := u.spec.Run(ctx)
				return outcome{cell: cell, err: err}, nil
			}
			id := u.req.Protocols[0]
			var res any
			var err error
			if t != nil {
				s := t.root(op, "worker", "one "+string(id))
				res, err = t.tracedRun(ctx, u.req.Config, id, u.req.Lambda, u.req.Seed, false, s)
				t.addCell(s.end())
			} else {
				res, err = u.req.Config.RunOne(ctx, id, u.req.Lambda, u.req.Seed, false)
			}
			if err != nil {
				return outcome{err: err}, nil
			}
			b, err := json.Marshal(res)
			return outcome{out: b, err: err}, nil
		})
	wall := time.Since(start)

	for i, j := range jobs {
		r.ops(1)
		got := outs[first[i]:first[i+1]]
		var want []byte
		var err error
		if j.req.Kind == service.KindOne {
			want, err = got[0].out, got[0].err
		} else {
			cells := make([]experiment.CellOutcome, len(got))
			for k, g := range got {
				cells[k] = g.cell
				if g.err != nil {
					err = g.err
				}
			}
			if err == nil {
				req := j.req.Normalize()
				want, err = fig3JSON(req.Config, req.Protocols, cells)
			}
		}
		switch {
		case err != nil:
			r.fail(1, "reference %s job: %v", j.class, err)
		case j.out != sha256.Sum256(want):
			r.fail(1, "%s job output differs from the library's", j.class)
		}
	}
	return wall, nil
}

// addJobMetrics reports the service's per-class latencies of completed
// jobs and its job throughput.
func addJobMetrics(r *report, all []*job, wall time.Duration) {
	byClass := map[string][]float64{}
	for _, j := range all {
		if j.err == nil {
			byClass[j.class] = append(byClass[j.class], float64(j.wall)/float64(time.Millisecond))
		}
	}
	for _, c := range []string{"miss", "hit"} {
		if xs := byClass[c]; len(xs) > 0 {
			r.add("one_"+c+"_ms_p50", stats.Median(xs), "ms", len(xs))
			r.add("one_"+c+"_ms_p99", stats.Quantile(xs, 0.99), "ms", len(xs))
		}
	}
	if sw := byClass["sweep"]; len(sw) > 0 {
		r.add("sweep_job_s_p50", stats.Median(sw)/1000, "s", len(sw))
		r.add("sweep_job_s_p75", stats.Quantile(sw, 0.75)/1000, "s", len(sw))
	}
	r.add("jobs_per_s", float64(len(all))/wall.Seconds(), "jobs/s", len(all))
}
