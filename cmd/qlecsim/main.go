// Command qlecsim runs a single clustering-protocol simulation under the
// paper's settings and prints a metric summary.
//
// Usage:
//
//	qlecsim [-protocol QLEC] [-list-protocols]
//	        [-lambda 4] [-rounds 20] [-n 100] [-side 200] [-k 5]
//	        [-seed 1] [-lifespan] [-deathline 2.5] [-perround]
//	        [-timeout 30s] [-quiet] [-remote http://host:8080]
//	        [-audit audit.json] [-chrometrace trace.json]
//	        [-log-level info] [-log-format text]
//	qlecsim -tournament [-protocols QLEC,FCM,...] [-lambdas 8,4,2]
//	        [-ns 50,100] [-tournament-json out.json]
//
// -protocol accepts any registered protocol id or alias;
// -list-protocols prints the registry roster (id, aliases, paper
// reference, default parameters) and exits.
//
// With -tournament every selected protocol (default: every registered
// non-ablation protocol) runs a scenario matrix — traffic λ × network
// size N × heterogeneity tiers — and a ranked report (PDR, energy per
// node, first/half-node-death rounds, audited energy budget) prints
// instead of the single-run table.
//
// With -lifespan the run uses the death-line / stop-on-first-death
// methodology of Figure 3(c); otherwise it runs exactly -rounds rounds.
// A live round counter streams to stderr (-quiet disables it). Ctrl-C
// or an elapsed -timeout stops the run at the next round boundary and
// prints the partial results accumulated so far.
//
// With -remote the simulation runs on a qlecd daemon instead of
// in-process: the tool submits the identical configuration as a job,
// streams per-round progress over SSE into the same stderr meter, and
// prints the same result table. Identical submissions are answered from
// the daemon's content-addressed cache without re-simulating.
//
// With -audit the run carries a flight recorder: a per-node energy
// ledger with double-entry conservation checks, per-decision Q-routing
// records, and anomaly detection. The artifact is written as JSON for
// cmd/qlecaudit (report / explain / diff).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"qlec"
	"qlec/internal/audit"
	"qlec/internal/cli"
	"qlec/internal/dataset"
	"qlec/internal/energy"
	"qlec/internal/experiment"
	"qlec/internal/obs"
	"qlec/internal/plot"
	"qlec/internal/service"
	"qlec/internal/service/client"
	"qlec/internal/sim"
)

func main() {
	var (
		protocol   = flag.String("protocol", "QLEC", "protocol id or alias (see -list-protocols)")
		lambda     = flag.Float64("lambda", 4, "mean packet inter-arrival time per node (seconds); smaller = more congested")
		rounds     = flag.Int("rounds", 20, "rounds to simulate (fixed-round mode)")
		n          = flag.Int("n", 100, "node count")
		side       = flag.Float64("side", 200, "cube side length (meters)")
		k          = flag.Int("k", 5, "cluster count per round")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		lifespan   = flag.Bool("lifespan", false, "measure lifespan (stop at first node death)")
		deathline  = flag.Float64("deathline", 2.5, "death line in Joules (lifespan mode)")
		maxRounds  = flag.Int("maxrounds", 3000, "round cap in lifespan mode")
		perRound   = flag.Bool("perround", false, "print per-round statistics")
		csvPath    = flag.String("csv", "", "write the per-round time series as CSV to this path")
		shadow     = flag.Float64("shadow", 0, "per-link log-normal shadowing sigma (0 = off)")
		speed      = flag.Float64("speed", 0, "random-waypoint mobility max speed in m/s (0 = static)")
		topoPath   = flag.String("topology", "", "load node positions/energies from an x,y,z,energy_j CSV instead of a uniform cube")
		contend    = flag.Float64("contention", 0, "interference factor gamma (0 = off)")
		tracePath  = flag.String("trace", "", "write a JSONL packet-event trace to this path")
		auditPath  = flag.String("audit", "", "record a flight-recorder artifact (energy ledger, Q decisions, conservation report) to this path; inspect with qlecaudit")
		chromePath = flag.String("chrometrace", "", "write per-round spans as Chrome trace_event JSON to this path (open in chrome://tracing or Perfetto)")
		timeout    = flag.Duration("timeout", 0, "abort the run after this long (0 = no limit); partial results are printed")
		quiet      = flag.Bool("quiet", false, "suppress the live per-round progress meter on stderr")
		remote     = flag.String("remote", "", "submit the run to a qlecd daemon at this base URL instead of simulating in-process")
		listProtos = flag.Bool("list-protocols", false, "print the protocol registry roster and exit")
		tournament = flag.Bool("tournament", false, "run the protocol tournament (scenario matrix + ranked report) instead of a single simulation")
		tournField = flag.String("protocols", "", "tournament: comma-separated protocol ids/aliases (empty = every registered non-ablation protocol)")
		tournLams  = flag.String("lambdas", "", "tournament: comma-separated traffic λ axis (empty = -lambda)")
		tournNs    = flag.String("ns", "", "tournament: comma-separated network-size axis (empty = -n)")
		tournJSON  = flag.String("tournament-json", "", "tournament: also write the full result as JSON to this path")
	)
	prof := cli.ProfileFlags(flag.CommandLine)
	logCfg := cli.LogFlags(flag.CommandLine)
	flag.Parse()
	logger := logCfg.MustSetup(os.Stderr)
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer prof.Stop()

	ctx, stop := cli.Context(*timeout)
	defer stop()

	if *listProtos {
		fmt.Print(cli.FormatProtocols())
		return
	}

	s := qlec.DefaultScenario()
	if !*tournament {
		id, err := cli.ResolveProtocol(*protocol)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qlecsim:", err)
			os.Exit(1)
		}
		s.Protocol = experiment.ProtocolID(id)
	}
	s.Lambda = *lambda
	s.Seed = *seed
	s.MeasureLifespan = *lifespan
	s.Config.N = *n
	s.Config.Side = *side
	s.Config.K = *k
	s.Config.Rounds = *rounds
	s.Config.LifespanDeathLine = energy.Joules(*deathline)
	s.Config.LifespanMaxRounds = *maxRounds
	s.Config.Seeds = []uint64{*seed}
	if *topoPath != "" {
		fh, err := os.Open(*topoPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qlecsim:", err)
			os.Exit(1)
		}
		topo, err := dataset.LoadCSV(fh)
		fh.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "qlecsim:", err)
			os.Exit(1)
		}
		s.Config.Topology = topo
	}
	s.Config.Sim.ShadowSigma = *shadow
	s.Config.Sim.ContentionGamma = *contend
	if *speed > 0 {
		s.Config.Sim.MobilitySpeedMin = *speed / 2
		s.Config.Sim.MobilitySpeedMax = *speed
	}

	if *tournament {
		if *remote != "" {
			fmt.Fprintln(os.Stderr, "qlecsim: -tournament runs in-process; drop -remote")
			os.Exit(1)
		}
		if err := runTournament(ctx, s.Config, *tournField, *tournLams, *tournNs, *tournJSON, *lambda, *quiet); err != nil {
			fmt.Fprintln(os.Stderr, "qlecsim:", err)
			os.Exit(1)
		}
		return
	}

	var flushTrace func() error
	if *tracePath != "" {
		if *remote != "" {
			fmt.Fprintln(os.Stderr, "qlecsim: -trace is per-packet and does not cross the wire; drop it or run without -remote")
			os.Exit(1)
		}
		fh, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qlecsim:", err)
			os.Exit(1)
		}
		defer fh.Close()
		tracer, flush := sim.JSONLTracer(fh)
		s.Hooks.Tracer = tracer
		flushTrace = flush
	}

	var auditRec *audit.Recorder
	if *auditPath != "" {
		if *remote != "" {
			fmt.Fprintln(os.Stderr, "qlecsim: -audit records locally; fetch /v1/jobs/{id}/audit from the daemon instead, or run without -remote")
			os.Exit(1)
		}
		auditRec = audit.New(audit.Options{})
		s.Hooks.Audit = auditRec
	}

	meter := cli.NewMeter(os.Stderr)
	var res *qlec.Result
	var err error
	if *remote != "" {
		if *chromePath != "" {
			fmt.Fprintln(os.Stderr, "qlecsim: -chrometrace records locally; fetch /v1/jobs/{id}/trace from the daemon instead, or run without -remote")
			os.Exit(1)
		}
		res, err = runRemote(ctx, *remote, s, logger, meter, *quiet)
		meter.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "qlecsim:", err)
			os.Exit(1)
		}
	} else {
		// Rounds record under one fresh trace, with no span IDs of
		// their own: the same span model a daemon serves.
		var spans *obs.TraceStore
		sc := obs.SpanContext{TraceID: obs.NewSpanContext().TraceID}
		if *chromePath != "" {
			spans = obs.NewTraceStore("qlecsim", 1)
		}
		if !*quiet || spans != nil {
			prev := time.Now()
			s.Hooks.Observer = func(snap sim.RoundSnapshot) {
				if spans != nil {
					now := time.Now()
					spans.Span(sc, fmt.Sprintf("round %d", snap.Round), "sim", prev, now,
						map[string]any{"alive": snap.Alive, "delivered": snap.Stats.Delivered})
					prev = now
				}
				if !*quiet {
					meter.Printf(snap.Done, "round %d  alive %d  energy %.2f J",
						snap.Round+1, snap.Alive, float64(snap.EnergySoFar))
				}
			}
		}
		start := time.Now()
		res, err = qlec.RunContext(ctx, s)
		meter.Close()
		interrupted := err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
		if err != nil && !interrupted {
			fmt.Fprintln(os.Stderr, "qlecsim:", err)
			os.Exit(1)
		}
		if interrupted {
			fmt.Fprintf(os.Stderr, "qlecsim: run stopped early (%v) after %d rounds in %v; partial results follow\n",
				err, res.Rounds, time.Since(start).Round(time.Millisecond))
		}
		if spans != nil {
			fh, err := os.Create(*chromePath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "qlecsim:", err)
				os.Exit(1)
			}
			recorded := spans.Spans(sc.TraceID)
			if err := obs.WriteChromeTrace(fh, recorded); err == nil {
				err = fh.Close()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "qlecsim:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s (%d events)\n", *chromePath, len(recorded))
		}
	}
	if flushTrace != nil {
		if err := flushTrace(); err != nil {
			fmt.Fprintln(os.Stderr, "qlecsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *tracePath)
	}
	if auditRec != nil {
		if aerr := auditRec.Err(); aerr != nil {
			fmt.Fprintln(os.Stderr, "qlecsim: audit:", aerr)
		}
		fh, err := os.Create(*auditPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qlecsim:", err)
			os.Exit(1)
		}
		art := auditRec.Artifact()
		if err := audit.WriteArtifact(fh, art); err == nil {
			err = fh.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "qlecsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d ledger entries, %d decisions)\n",
			*auditPath, art.Report.Entries, art.Report.Decisions)
	}

	fmt.Println(plot.Table(
		[]string{"metric", "value"},
		[][]string{
			{"protocol", res.Protocol},
			{"rounds executed", fmt.Sprintf("%d", res.Rounds)},
			{"packets generated", fmt.Sprintf("%d", res.Generated)},
			{"packets delivered", fmt.Sprintf("%d", res.Delivered)},
			{"packet delivery rate", fmt.Sprintf("%.4f", res.PDR())},
			{"dropped (link)", fmt.Sprintf("%d", res.Dropped[0])},
			{"dropped (queue)", fmt.Sprintf("%d", res.Dropped[1])},
			{"dropped (batch)", fmt.Sprintf("%d", res.Dropped[2])},
			{"dropped (dead)", fmt.Sprintf("%d", res.Dropped[3])},
			{"total energy (J)", fmt.Sprintf("%.4f", float64(res.TotalEnergy))},
			{"  tx / rx (J)", fmt.Sprintf("%.4f / %.4f", float64(res.Energy.Tx), float64(res.Energy.Rx))},
			{"  fusion / control (J)", fmt.Sprintf("%.4f / %.4f", float64(res.Energy.Fusion), float64(res.Energy.Control))},
			{"mean latency (s)", fmt.Sprintf("%.4f", res.Latency.Mean)},
			{"mean hops", fmt.Sprintf("%.3f", res.Hops.Mean)},
			{"lifespan (rounds)", lifespanString(res.Lifespan)},
			{"first dead node", fmt.Sprintf("%d", res.FirstDead)},
		},
	))

	if *csvPath != "" {
		fh, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qlecsim:", err)
			os.Exit(1)
		}
		if err := res.WriteRoundsCSV(fh); err != nil {
			fmt.Fprintln(os.Stderr, "qlecsim:", err)
			os.Exit(1)
		}
		if err := fh.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "qlecsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}

	if *perRound {
		headers := []string{"round", "heads", "generated", "delivered", "dropped", "energy (J)", "alive", "latency (s)"}
		var rows [][]string
		for _, rs := range res.PerRound {
			rows = append(rows, []string{
				fmt.Sprintf("%d", rs.Round),
				fmt.Sprintf("%d", rs.Heads),
				fmt.Sprintf("%d", rs.Generated),
				fmt.Sprintf("%d", rs.Delivered),
				fmt.Sprintf("%d", rs.DroppedTotal()),
				fmt.Sprintf("%.4f", float64(rs.Energy)),
				fmt.Sprintf("%d", rs.AliveAtEnd),
				fmt.Sprintf("%.4f", rs.MeanLatency),
			})
		}
		fmt.Println()
		fmt.Println(plot.Table(headers, rows))
	}
}

func lifespanString(l int) string {
	if l == 0 {
		return "survived"
	}
	return fmt.Sprintf("%d", l)
}

// runTournament drives experiment.RunTournament from the flag surface:
// the single-run configuration becomes the tournament base, the
// comma-separated axis flags widen the matrix, and the ranked report
// prints where the single-run table would.
func runTournament(ctx context.Context, cfg experiment.Config, field, lams, ns, jsonPath string, lambda float64, quiet bool) error {
	tc := experiment.TournamentConfig{Base: cfg, Lambdas: []float64{lambda}}
	for _, name := range splitList(field) {
		id, err := cli.ResolveProtocol(name)
		if err != nil {
			return err
		}
		tc.Protocols = append(tc.Protocols, experiment.ProtocolID(id))
	}
	if vs := splitList(lams); len(vs) > 0 {
		tc.Lambdas = nil
		for _, s := range vs {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return fmt.Errorf("bad -lambdas entry %q: %v", s, err)
			}
			tc.Lambdas = append(tc.Lambdas, v)
		}
	}
	for _, s := range splitList(ns) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return fmt.Errorf("bad -ns entry %q: %v", s, err)
		}
		tc.Ns = append(tc.Ns, v)
	}
	meter := cli.NewMeter(os.Stderr)
	if !quiet {
		tc.Base.Progress = meter.SweepProgress("tournament cells")
	}
	res, err := experiment.RunTournament(ctx, tc)
	meter.Close()
	if err != nil {
		return err
	}
	fmt.Println(experiment.FormatTournament(res))
	if jsonPath != "" {
		fh, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(fh)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fh.Close()
			return err
		}
		if err := fh.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", jsonPath)
	}
	return nil
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runRemote submits the scenario to a qlecd daemon as a KindOne job,
// streams SSE round progress into the meter, and returns the fetched
// result. On Ctrl-C the remote job is cancelled best-effort — the
// daemon discards the partial run, so unlike local runs there is no
// partial table to print.
func runRemote(ctx context.Context, base string, s qlec.Scenario, logger *slog.Logger, meter *cli.Meter, quiet bool) (*qlec.Result, error) {
	req := service.Request{
		Kind:      service.KindOne,
		Config:    s.Config,
		Protocols: []experiment.ProtocolID{s.Protocol},
		Lambda:    s.Lambda,
		Seed:      s.Seed,
		Lifespan:  s.MeasureLifespan,
	}
	cl := client.New(base, client.WithLogger(logger))
	res, job, err := cl.RunOne(ctx, req, func(e service.Event) {
		if quiet || e.Round == nil {
			return
		}
		meter.Printf(e.Round.Done, "round %d  alive %d  energy %.2f J  [remote]",
			e.Round.Round+1, e.Round.Alive, e.Round.EnergyJ)
	})
	if err != nil {
		if ctx.Err() != nil && job != nil && !job.State.Terminal() {
			cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_, _ = cl.Cancel(cctx, job.ID)
			cancel()
			return nil, fmt.Errorf("interrupted; cancelled remote job %s", job.ID)
		}
		return nil, err
	}
	if job.CacheHit {
		fmt.Fprintf(os.Stderr, "qlecsim: served from qlecd result cache (job %s, hash %.12s)\n", job.ID, job.Hash)
	}
	return res, nil
}
