// Command qlecaudit inspects the artifacts a run leaves: flight-recorder
// artifacts produced by qlecsim -audit or fetched from qlecd's
// /v1/jobs/{id}/audit endpoint, packet traces written by qlecsim -trace
// (or any sim.JSONLTracer output), and the Chrome traces of qlecd's
// distributed trace endpoints.
//
// Usage:
//
//	qlecaudit report [-top 10] <audit.json | ->
//	qlecaudit explain -node N [-round R] <audit.json | ->
//	qlecaudit diff <a.json> <b.json>
//	qlecaudit trace [-node N] [-round R] <trace.jsonl | ->
//	qlecaudit trace -chrome [-limit 40] <trace.json | ->
//
// report prints the run's energy accounting (per cause and per node),
// conservation-violation status and anomaly summary. explain replays
// one node's routing decisions — candidate heads, their Q-values, the
// ε roll and the realized reward — optionally restricted to one round.
// diff locates the first point where two artifacts' ledgers or decision
// streams diverge; identically-seeded runs must diff clean, so any
// divergence is a reproducibility bug. diff exits 1 on divergence,
// report exits 1 when the artifact records conservation violations.
//
// trace tallies a JSONL packet trace: per-kind event counts, drop
// reasons, retry behaviour, access delay, per-head load and per-round
// tallies. -node keeps events where the node is the actor or the target
// (so both halves of every send/accept pair survive) and -round keeps
// one round; the filters compose, and every tally is computed over the
// filtered stream, for drilling into a node that report or explain
// flagged:
//
//	qlecsim -rounds 5 -trace run.jsonl
//	qlecaudit trace -node 17 run.jsonl
//
// trace -chrome instead reads a Chrome trace_event JSON document, such
// as the fleet-merged trace from qlecd (GET /v1/jobs/{id}/trace or
// /v1/batches/{id}/trace) or qlecsim -chrometrace, and renders one lane
// per daemon (the trace's process_name metadata) and a chronological
// span listing, so a multi-peer execution reads as one timeline without
// a browser:
//
//	curl -s $BASE/v1/jobs/j00000001/trace > trace.json
//	qlecaudit trace -chrome -limit 20 trace.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"qlec/internal/audit"
	"qlec/internal/cli"
	"qlec/internal/plot"
	"qlec/internal/sim"
	"qlec/internal/traceio"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "report":
		cmdReport(os.Args[2:])
	case "explain":
		cmdExplain(os.Args[2:])
	case "diff":
		cmdDiff(os.Args[2:])
	case "trace":
		cmdTrace(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  qlecaudit report [-top 10] <audit.json | ->
  qlecaudit explain -node N [-round R] <audit.json | ->
  qlecaudit diff <a.json> <b.json>
  qlecaudit trace [-node N] [-round R] <trace.jsonl | ->
  qlecaudit trace -chrome [-limit 40] <trace.json | ->`)
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qlecaudit:", err)
	os.Exit(1)
}

// open opens the named input; "-" is stdin.
func open(path string) io.ReadCloser {
	if path == "-" {
		return io.NopCloser(os.Stdin)
	}
	fh, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	return fh
}

func load(path string) *audit.Artifact {
	src := open(path)
	defer src.Close()
	a, err := audit.ReadArtifact(src)
	if err != nil {
		fail(err)
	}
	return a
}

func cmdReport(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	prof := cli.ProfileFlags(fs)
	top := fs.Int("top", 10, "show the N highest-consumption nodes (0 = all)")
	fs.Parse(args)
	if err := prof.Start(); err != nil {
		fail(err)
	}
	defer prof.Stop()
	if fs.NArg() != 1 {
		usage()
	}
	a := load(fs.Arg(0))
	rep := a.Report

	if a.Build.Revision != "" {
		dirty := ""
		if a.Build.Modified {
			dirty = " (dirty)"
		}
		fmt.Printf("build %.12s%s\n\n", a.Build.Revision, dirty)
	}
	fmt.Println(plot.Table(
		[]string{"quantity", "value"},
		[][]string{
			{"rounds", fmt.Sprintf("%d", rep.Rounds)},
			{"ledger entries", keptString(rep.Entries, rep.EntriesKept)},
			{"decision records", keptString(rep.Decisions, rep.DecisionsKept)},
			{"total energy (J)", fmt.Sprintf("%.4f", float64(rep.TotalJ))},
			{"  tx / rx (J)", fmt.Sprintf("%.4f / %.4f", float64(rep.TxJ), float64(rep.RxJ))},
			{"  fusion / control (J)", fmt.Sprintf("%.4f / %.4f", float64(rep.FusionJ), float64(rep.ControlJ))},
			{"conservation violations", fmt.Sprintf("%d", rep.ViolationCount)},
			{"anomalies", fmt.Sprintf("%d", anomalyTotal(rep))},
		},
	))

	if len(rep.AnomalyCounts) > 0 {
		fmt.Println()
		var rows [][]string
		for _, kind := range []string{audit.AnomalyRoutingLoop, audit.AnomalyCHStarvation, audit.AnomalyQDivergence, audit.AnomalyDeadNodeTx} {
			if c, ok := rep.AnomalyCounts[kind]; ok {
				rows = append(rows, []string{kind, fmt.Sprintf("%d", c)})
			}
		}
		fmt.Println(plot.Table([]string{"anomaly", "count"}, rows))
		for _, an := range rep.Anomalies {
			fmt.Printf("  round %d  %s: %s\n", an.Round, an.Type, an.Detail)
		}
	}
	for _, v := range rep.Violations {
		fmt.Printf("  VIOLATION %s\n", v.String())
	}

	if len(rep.Nodes) > 0 {
		fmt.Println()
		var rows [][]string
		for _, n := range rep.TopSpenders(*top) {
			rows = append(rows, []string{
				fmt.Sprintf("%d", n.Node),
				fmt.Sprintf("%.4f", float64(n.Total)),
				fmt.Sprintf("%.4f", float64(n.Tx)),
				fmt.Sprintf("%.4f", float64(n.Rx)),
				fmt.Sprintf("%.4f", float64(n.Fusion)),
				fmt.Sprintf("%.4f", float64(n.Control)),
				fmt.Sprintf("%.4f", float64(n.Residual)),
			})
		}
		fmt.Println(plot.Table(
			[]string{"top spenders", "total (J)", "tx", "rx", "fusion", "control", "residual"}, rows))
	}

	if rep.ViolationCount > 0 {
		os.Exit(1)
	}
}

func keptString(total, kept int) string {
	if kept == total {
		return fmt.Sprintf("%d", total)
	}
	return fmt.Sprintf("%d (%d kept)", total, kept)
}

func anomalyTotal(rep audit.Report) uint64 {
	var n uint64
	for _, c := range rep.AnomalyCounts {
		n += c
	}
	return n
}

func cmdExplain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	prof := cli.ProfileFlags(fs)
	node := fs.Int("node", -1, "node whose decisions to replay (required)")
	round := fs.Int("round", -1, "restrict to one round (-1 = all)")
	fs.Parse(args)
	if err := prof.Start(); err != nil {
		fail(err)
	}
	defer prof.Stop()
	if fs.NArg() != 1 || *node < 0 {
		usage()
	}
	a := load(fs.Arg(0))
	ds := a.ExplainNode(*node, *round)
	if len(ds) == 0 {
		fmt.Printf("no decisions recorded for node %d", *node)
		if *round >= 0 {
			fmt.Printf(" in round %d", *round)
		}
		fmt.Println(" (records age out oldest-first; see decisionsKept in the report)")
		return
	}
	var rows [][]string
	for _, d := range ds {
		rows = append(rows, []string{
			fmt.Sprintf("%d", d.Round),
			candidateString(d.Candidates, d.QValues),
			nodeName(d.Greedy),
			chosenString(d),
			rollString(d.EpsRoll),
			rewardString(d),
		})
	}
	fmt.Println(plot.Table(
		[]string{"round", "candidates (Q)", "greedy", "chosen", "eps roll", "reward"}, rows))
}

func candidateString(cands []int, qs []float64) string {
	parts := make([]string, 0, len(cands))
	for i, c := range cands {
		q := ""
		if i < len(qs) {
			q = fmt.Sprintf(" %.3f", qs[i])
		}
		parts = append(parts, nodeName(c)+q)
	}
	return strings.Join(parts, ", ")
}

// nodeName renders a node id; negative ids (network.BSID) are the base
// station.
func nodeName(id int) string {
	if id < 0 {
		return "base station"
	}
	return fmt.Sprintf("node %d", id)
}

func chosenString(d audit.DecisionRecord) string {
	s := nodeName(d.Chosen)
	if d.Explored {
		s += " (explored)"
	}
	return s
}

func rollString(roll *float64) string {
	if roll == nil {
		return "-"
	}
	return fmt.Sprintf("%.3f", *roll)
}

func rewardString(d audit.DecisionRecord) string {
	if !d.HasReward {
		return "-"
	}
	out := fmt.Sprintf("%.3f", d.Reward)
	if d.Success {
		return out + " (ack)"
	}
	return out + " (drop)"
}

func cmdDiff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	prof := cli.ProfileFlags(fs)
	fs.Parse(args)
	if err := prof.Start(); err != nil {
		fail(err)
	}
	defer prof.Stop()
	if fs.NArg() != 2 {
		usage()
	}
	a, b := load(fs.Arg(0)), load(fs.Arg(1))
	if d := audit.Compare(a, b); d != nil {
		fmt.Printf("DIVERGED: %s\n", d.String())
		os.Exit(1)
	}
	fmt.Printf("audit streams identical: %d ledger entries, %d decisions\n",
		len(a.Ledger), len(a.Decisions))
}

func cmdTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	node := fs.Int("node", -1, "only events where this node is the actor or target (-1 = all)")
	round := fs.Int("round", -1, "only events from this round (-1 = all)")
	chrome := fs.Bool("chrome", false, "input is Chrome trace_event JSON (a qlecd distributed trace), not a packet JSONL")
	limit := fs.Int("limit", 40, "with -chrome: span listing rows (0 = all)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	src := open(fs.Arg(0))
	defer src.Close()
	if *chrome {
		if err := traceChrome(src, *limit); err != nil {
			fail(err)
		}
		return
	}
	events, err := traceio.ParseJSONL(src)
	if err != nil {
		fail(err)
	}
	if *node >= 0 || *round >= 0 {
		total := len(events)
		events = traceio.Filter(events, *node, *round)
		fmt.Fprintf(os.Stderr, "qlecaudit: %d of %d events match the filter\n", len(events), total)
	}
	s, err := traceio.Analyze(events)
	if err != nil {
		fail(err)
	}

	fmt.Println(plot.Table(
		[]string{"quantity", "value"},
		[][]string{
			{"events", fmt.Sprintf("%d", s.Events)},
			{"packets generated", fmt.Sprintf("%d", s.Generated)},
			{"packets delivered", fmt.Sprintf("%d", s.Delivered)},
			{"packets dropped", fmt.Sprintf("%d", s.Dropped)},
			{"radio sends", fmt.Sprintf("%d", s.ByKind[sim.TraceSend])},
			{"accepts / rejects", fmt.Sprintf("%d / %d", s.ByKind[sim.TraceAccept], s.ByKind[sim.TraceReject])},
			{"mean attempts per packet", fmt.Sprintf("%.3f", s.AttemptsPerPacket.Mean)},
			{"max attempts per packet", fmt.Sprintf("%.0f", s.AttemptsPerPacket.Max)},
			{"mean access delay (s)", fmt.Sprintf("%.4f", s.AccessDelay.Mean)},
		},
	))

	if len(s.DropReasons) > 0 {
		fmt.Println()
		var rows [][]string
		for _, reason := range []string{"link", "queue", "batch", "dead"} {
			if c, ok := s.DropReasons[reason]; ok {
				rows = append(rows, []string{reason, fmt.Sprintf("%d", c)})
			}
		}
		fmt.Println(plot.Table([]string{"drop reason", "count"}, rows))
	}

	fmt.Println()
	var loadRows [][]string
	for _, kv := range s.TopLoads(10) {
		loadRows = append(loadRows, []string{nodeName(kv[0]), fmt.Sprintf("%d", kv[1])})
	}
	fmt.Println(plot.Table([]string{"busiest accept targets", "packets"}, loadRows))

	fmt.Println()
	var roundRows [][]string
	for _, rt := range s.Rounds {
		roundRows = append(roundRows, []string{
			fmt.Sprintf("%d", rt.Round),
			fmt.Sprintf("%d", rt.Generated),
			fmt.Sprintf("%d", rt.Delivered),
			fmt.Sprintf("%d", rt.Dropped),
		})
	}
	fmt.Println(plot.Table([]string{"round", "generated", "delivered", "dropped"}, roundRows))
}

// chromeEvent is the subset of the trace_event schema the lane view
// needs; obs.WriteChromeTrace emits exactly it.
type chromeEvent struct {
	Name  string          `json:"name"`
	Phase string          `json:"ph"`
	TS    int64           `json:"ts"`  // µs, rebased to the trace start
	Dur   int64           `json:"dur"` // µs
	PID   int             `json:"pid"`
	Args  json.RawMessage `json:"args,omitempty"`
}

// traceChrome renders a Chrome trace as text: the daemon lanes
// (process_name metadata), then the spans in start order. The
// "lanes: N" line is the greppable contract CI uses to assert a trace
// crossed peers.
func traceChrome(src io.Reader, limit int) error {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(src).Decode(&doc); err != nil {
		return fmt.Errorf("parse chrome trace: %w", err)
	}

	lanes := map[int]string{}
	perLane := map[int]int{}
	var spans []chromeEvent
	for _, e := range doc.TraceEvents {
		switch e.Phase {
		case "M":
			if e.Name == "process_name" {
				var args struct {
					Name string `json:"name"`
				}
				_ = json.Unmarshal(e.Args, &args)
				lanes[e.PID] = args.Name
			}
		case "X", "i", "I":
			perLane[e.PID]++
			spans = append(spans, e)
		}
	}
	for pid := range perLane {
		if _, ok := lanes[pid]; !ok {
			lanes[pid] = fmt.Sprintf("pid %d", pid)
		}
	}

	fmt.Printf("lanes: %d\n", len(lanes))
	pids := make([]int, 0, len(lanes))
	for pid := range lanes {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	var laneRows [][]string
	for _, pid := range pids {
		laneRows = append(laneRows, []string{lanes[pid], fmt.Sprintf("%d", perLane[pid])})
	}
	fmt.Println(plot.Table([]string{"lane (daemon)", "events"}, laneRows))

	sort.SliceStable(spans, func(i, j int) bool { return spans[i].TS < spans[j].TS })
	total := len(spans)
	if limit > 0 && len(spans) > limit {
		spans = spans[:limit]
	}
	var rows [][]string
	for _, e := range spans {
		dur := "-"
		if e.Phase == "X" {
			dur = fmt.Sprintf("%.3f", float64(e.Dur)/1000)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.3f", float64(e.TS)/1000),
			dur,
			lanes[e.PID],
			e.Name,
		})
	}
	fmt.Println()
	fmt.Println(plot.Table([]string{"t (ms)", "dur (ms)", "lane", "span"}, rows))
	if total > len(spans) {
		fmt.Printf("(%d of %d spans shown; raise -limit for more)\n", len(spans), total)
	}
	return nil
}
