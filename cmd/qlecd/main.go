// Command qlecd runs the QLEC simulation service: a long-lived daemon
// that accepts simulation jobs over HTTP/JSON, executes them on a
// bounded worker pool, streams per-round progress over SSE and caches
// results content-addressed on disk — identical submissions never
// simulate twice, across restarts included.
//
// Sweep jobs and batches split into content-addressed cells that a
// pool of cell executors drains. With -self plus -peers or -join,
// daemons form a cooperating fleet: idle peers steal cells over HTTP
// (TTL leases re-pool a dead peer's cells), and the result cache is
// shared via a consistent-hash ring, so a config computed anywhere is a
// cache hit everywhere (see README "Running a fleet"). A daemon started
// without -self is a fleet of one.
//
// Usage:
//
//	qlecd [-addr :8080] [-data-dir qlecd-data] [-workers 2]
//	      [-queue 256] [-retries 1]
//	      [-drain-timeout 30s] [-log-level info] [-log-format text]
//	      [-self http://host:8080] [-peers url,url] [-join url]
//	      [-cell-workers 0] [-lease-ttl 15s]
//	      [-trace-history 256]
//	      [-pprof] [-pprof-block] [-pprof-mutex] [-version] [-quiet]
//
// API (see README "Running as a service" for curl examples):
//
//	POST   /v1/jobs             submit a job (experiment config + kind)
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job state
//	DELETE /v1/jobs/{id}        cancel (idempotent; next round boundary)
//	GET    /v1/jobs/{id}/events SSE progress stream
//	GET    /v1/jobs/{id}/trace  Chrome trace_event JSON for the job
//	GET    /v1/jobs/{id}/audit  flight-recorder artifact of a finished
//	                            single run, rebuilt on request by
//	                            replaying the job (inspect with
//	                            cmd/qlecaudit)
//	POST   /v1/batches          submit many configs as one batch
//	GET    /v1/batches          list batches
//	GET    /v1/batches/{id}     batch state (per-config table)
//	GET    /v1/batches/{id}/events aggregate SSE stream for a batch
//	GET    /v1/protocols        registered protocol roster (ids, aliases,
//	                            paper refs, default params)
//	GET    /v1/results/{hash}   content-addressed result download
//	GET    /healthz             liveness (always 200 while the process
//	                            serves; use /readyz for drain state)
//	GET    /readyz              readiness (503 once draining begins)
//	GET    /v1/fleet            peer roster + work-pool counters
//	GET    /v1/batches/{id}/trace fleet-merged Chrome trace of a batch
//	GET    /metrics             Prometheus text exposition
//	GET    /version             build/VCS metadata
//	GET    /debug/pprof/        profiling endpoints (with -pprof; read
//	                            with go tool pprof)
//
// -cell-workers 0 sizes the cell-executor pool to GOMAXPROCS.
//
// The fleet-internal endpoints (POST /v1/fleet/join, /v1/fleet/steal,
// /v1/fleet/complete, /v1/fleet/renew, GET/PUT /v1/fleet/cache/{hash})
// are how peers exchange work and results; they are not client API.
//
// The first SIGINT/SIGTERM drains gracefully: submissions get 503,
// in-flight jobs run to completion (bounded by -drain-timeout), queued
// jobs stay queued on disk and resume on the next start. A second
// signal force-quits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"qlec/internal/cli"
	"qlec/internal/obs"
	"qlec/internal/service"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "HTTP listen address")
		dataDir      = flag.String("data-dir", "qlecd-data", "job/result store directory (empty = in-memory only)")
		workers      = flag.Int("workers", 2, "concurrent simulation jobs")
		queueLimit   = flag.Int("queue", 256, "maximum queued jobs before 503")
		retries      = flag.Int("retries", 1, "re-queues per job on transient failure")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs")
		enablePprof  = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
		pprofBlock   = flag.Bool("pprof-block", false, "enable runtime block profiling (rate 1) so /debug/pprof/block has data")
		pprofMutex   = flag.Bool("pprof-mutex", false, "enable runtime mutex profiling (fraction 1) so /debug/pprof/mutex has data")
		version      = flag.Bool("version", false, "print build/VCS metadata and exit")
		quiet        = flag.Bool("quiet", false, "suppress the operational log")

		self        = flag.String("self", "", "this daemon's base URL as peers reach it (enables fleet mode)")
		peersFlag   = flag.String("peers", "", "comma-separated peer base URLs to start the fleet roster with")
		join        = flag.String("join", "", "existing fleet member to join through (adopts its roster)")
		cellWorkers = flag.Int("cell-workers", 0, "sweep/batch cell executors (0 = GOMAXPROCS)")
		leaseTTL    = flag.Duration("lease-ttl", 15*time.Second, "fleet work-lease TTL; a dead peer's cells re-pool after this")

		traceHistory = flag.Int("trace-history", 256, "traces retained in the span store (FIFO eviction; each keeps up to 20000 spans)")
	)
	logCfg := cli.LogFlags(flag.CommandLine)
	prof := cli.ProfileFlags(flag.CommandLine)
	flag.Parse()

	if *version {
		fmt.Println(obs.Version())
		return
	}
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "qlecd:", err)
		os.Exit(1)
	}
	defer prof.Stop()
	if *pprofBlock {
		runtime.SetBlockProfileRate(1)
	}
	if *pprofMutex {
		runtime.SetMutexProfileFraction(1)
	}

	var logDst io.Writer = os.Stderr
	if *quiet {
		logDst = io.Discard
	}
	logger := logCfg.MustSetup(logDst)
	bi := obs.Version()
	logger.Info("qlecd starting",
		"version", bi.Version, "go", bi.GoVersion, "revision", bi.Revision)

	var peers []string
	for _, p := range strings.Split(*peersFlag, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	srv, err := service.New(service.Options{
		DataDir:      *dataDir,
		Workers:      *workers,
		QueueLimit:   *queueLimit,
		MaxRetries:   *retries,
		Logger:       logger,
		Pprof:        *enablePprof,
		TraceHistory: *traceHistory,
		Fleet: service.FleetOptions{
			Self:        *self,
			Peers:       peers,
			Join:        *join,
			CellWorkers: *cellWorkers,
			LeaseTTL:    *leaseTTL,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "qlecd:", err)
		os.Exit(1)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	logger.Info("listening",
		"addr", *addr, "dataDir", *dataDir, "workers", *workers, "pprof", *enablePprof)
	if *self != "" {
		logger.Info("fleet mode", "self", *self, "peers", peers, "join", *join)
	}

	// First signal cancels ctx (drain), second force-quits — the same
	// two-stage Ctrl-C contract as every other tool in the repo.
	ctx, stop := cli.Context(0)
	defer stop()

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "qlecd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("draining", "timeout", drainTimeout.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		logger.Warn("drain incomplete; interrupted jobs will resume on next start", "err", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("http shutdown", "err", err)
	}
	logger.Info("bye")
}
