// Command qlecfig regenerates the paper's evaluation figures.
//
// Usage:
//
//	qlecfig -fig 3a|3b|3c|3|4|latency [-out DIR] [-quick]
//	        [-timeout 5m] [-workers 0] [-reps 1]
//	qlecfig -fig theorem1
//	qlecfig -fig dataset [-quick] [-data FILE] [-out DIR]
//
// Each figure is printed as an ASCII chart on stdout and, when -out is
// given, written as CSV (figures 3*) or x,y,z,value CSV (figure 4) for
// external plotting. -quick shrinks seeds/rounds for a fast smoke run.
//
// -fig theorem1 evaluates Theorem 1 (the optimal cluster count in a 3-D
// network) at the paper's N=100, 200 m side and 4000-bit packets with a
// centre BS, cross-checks it against a brute-force argmin of Eq. (6)
// and prints E_r(k) around the optimum.
//
// -fig dataset prints the §5.3 dataset that -fig 4 runs on under the
// same flags (a summary table and an XY density map) and, with -out,
// writes it as DIR/dataset.csv. The synthetic generator reproduces the
// spatial clumping and heavy-tailed energies of the WRI Global Power
// Plant Database's China subset (see DESIGN.md's substitution table).
// -data replaces it with an x,y,z,energy_j CSV or with the genuine WRI
// database file, whose China rows are converted on load; the header row
// tells the two apart.
//
// Sweeps run their cells in parallel (-workers bounds the pool; 0 uses
// every CPU, 1 forces the serial reference schedule — results are
// identical either way) with a live cell counter on stderr. Ctrl-C or
// an elapsed -timeout cancels the sweep promptly.
package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"qlec"
	"qlec/internal/cli"
	"qlec/internal/dataset"
	"qlec/internal/energy"
	"qlec/internal/experiment"
	"qlec/internal/geom"
	"qlec/internal/network"
	"qlec/internal/plot"
	"qlec/internal/rng"
	"qlec/internal/stats"
)

// workers is the -workers flag, applied to every sweep configuration.
var workers int

func main() {
	var (
		fig     = flag.String("fig", "3", "figure to regenerate: 1, 3a, 3b, 3c, 3 (all), latency, 4, ablation, ksweep, nsweep, theorem1, dataset")
		out     = flag.String("out", "", "directory for CSV output (optional)")
		quick   = flag.Bool("quick", false, "fast smoke run (fewer seeds/rounds/nodes)")
		kOver   = flag.Int("k", 0, "override the cluster count (0 = paper default)")
		data    = flag.String("data", "", "figure 4 and dataset: use an x,y,z,energy_j CSV or a WRI Global Power Plant Database CSV instead of the synthetic dataset")
		timeout = flag.Duration("timeout", 0, "abort after this long (0 = no limit)")
		reps    = flag.Int("reps", 1, "figure 4 only: replicate seeds to run and summarize")
		listP   = flag.Bool("list-protocols", false, "print the protocol registry roster and exit")
	)
	flag.IntVar(&workers, "workers", 0, "parallel sweep workers (0 = all CPUs, 1 = serial)")
	prof := cli.ProfileFlags(flag.CommandLine)
	logCfg := cli.LogFlags(flag.CommandLine)
	flag.Parse()
	logCfg.MustSetup(os.Stderr)
	if err := prof.Start(); err != nil {
		fail(err)
	}
	defer prof.Stop()

	ctx, stop := cli.Context(*timeout)
	defer stop()

	if *listP {
		fmt.Print(cli.FormatProtocols())
		return
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fail(err)
		}
	}
	switch *fig {
	case "1":
		runFig1(*kOver)
	case "3", "3a", "3b", "3c", "latency":
		runFig3(ctx, *fig, *out, *quick, *kOver)
	case "4":
		runFig4(ctx, *out, fig4Config(ctx, *quick, *kOver, *data, *reps))
	case "dataset":
		runDataset(*out, fig4Config(ctx, *quick, *kOver, *data, *reps))
	case "theorem1":
		runTheorem1()
	case "ablation":
		runAblation(ctx, *quick, *kOver)
	case "ksweep":
		runKSweep(ctx, *quick)
	case "nsweep":
		runNSweep(ctx, *quick)
	default:
		fail(fmt.Errorf("unknown figure %q", *fig))
	}
}

// sweepMeter wires a throttled stderr progress meter into cfg and
// returns its cleanup. Call close before printing results.
func sweepMeter(cfg *experiment.Config, label string) func() {
	m := cli.NewMeter(os.Stderr)
	cfg.Workers = workers
	cfg.Progress = m.SweepProgress(label)
	return m.Close
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qlecfig:", err)
	os.Exit(1)
}

func runFig3(ctx context.Context, which, out string, quick bool, kOver int) {
	cfg := experiment.PaperConfig()
	if kOver > 0 {
		cfg.K = kOver
	}
	if quick {
		cfg.Rounds = 5
		cfg.Seeds = []uint64{1, 2}
		cfg.Lambdas = []float64{8, 2}
		cfg.LifespanDeathLine = 4.9
		cfg.LifespanMaxRounds = 200
	}
	fmt.Fprintf(os.Stderr, "running Figure 3 sweep: %d protocols × %d λ × %d seeds (×2 run kinds)...\n",
		len(qlec.Protocols()), len(cfg.Lambdas), len(cfg.Seeds))
	done := sweepMeter(&cfg, "fig3 cells")
	f, err := qlec.ReproduceFigure3Context(ctx, cfg, nil)
	done()
	if err != nil {
		fail(err)
	}
	panels := map[string]*plot.Chart{
		"3a": f.PDR, "3b": f.Energy, "3c": f.Life, "latency": f.Latency,
	}
	order := []string{"3a", "3b", "3c", "latency"}
	for _, name := range order {
		if which != "3" && which != name {
			continue
		}
		ch := panels[name]
		s, err := ch.RenderASCII(72, 18)
		if err != nil {
			fail(err)
		}
		fmt.Println(s)
		if out != "" {
			writeFile(filepath.Join(out, "fig"+name+".csv"), ch.WriteCSV)
		}
	}
	fmt.Println(experiment.Fig3Table(f.Sweep))
}

// runFig1 reproduces the paper's Figure 1: the clustered network
// structure after one round of head selection — members, heads and the
// central base station, XY-projected.
func runFig1(kOver int) {
	cfg := experiment.PaperConfig()
	if kOver > 0 {
		cfg.K = kOver
	}
	w, err := network.Deploy(network.Deployment{
		N: cfg.N, Side: cfg.Side, InitialEnergy: cfg.InitialEnergy,
	}, rng.NewNamed(1, "experiment/deploy"))
	if err != nil {
		fail(err)
	}
	proto, err := cfg.BuildProtocol(experiment.QLEC, w, cfg.Rounds, 0, 1)
	if err != nil {
		fail(err)
	}
	heads := proto.StartRound(0)
	isHead := map[int]bool{}
	for _, h := range heads {
		isHead[h] = true
	}
	var members, headPts []geom.Vec3
	for _, n := range w.Nodes {
		if isHead[n.ID] {
			headPts = append(headPts, n.Pos)
		} else {
			members = append(members, n.Pos)
		}
	}
	sc := &plot.Scatter{
		Title: fmt.Sprintf("Figure 1: network structure after DEEC clustering (N=%d, k=%d)", cfg.N, len(heads)),
		Box:   w.Box,
		Cols:  72, Rows: 24,
		Categories: []plot.ScatterCategory{
			{Name: "member", Marker: '.', Points: members},
			{Name: "cluster head", Marker: 'H', Points: headPts},
			{Name: "base station", Marker: 'B', Points: []geom.Vec3{w.BS}},
		},
	}
	out, err := sc.RenderASCII()
	if err != nil {
		fail(err)
	}
	fmt.Println(out)
	fmt.Printf("(XY projection; the deployment spans %.0f m of height too)\n", sc.ZSpread())
}

// runKSweep prints QLEC's sensitivity to the cluster count around
// Theorem 1's optimum (DESIGN.md §6.2).
func runKSweep(ctx context.Context, quick bool) {
	cfg := experiment.PaperConfig()
	lambda := 2.0
	ks := []int{3, 5, 8, 11, 15, 20}
	if quick {
		cfg.Rounds = 5
		cfg.Seeds = []uint64{1, 2}
		cfg.LifespanDeathLine = 4.9
		cfg.LifespanMaxRounds = 200
		ks = []int{5, 11}
	}
	fmt.Fprintf(os.Stderr, "running k sweep %v at λ=%g, %d seeds (×2 run kinds)...\n", ks, lambda, len(cfg.Seeds))
	done := sweepMeter(&cfg, "k-sweep cells")
	points, err := cfg.RunKSweep(ctx, experiment.QLEC, ks, lambda)
	done()
	if err != nil {
		fail(err)
	}
	ch, err := experiment.KSweepChart(points, experiment.QLEC, lambda)
	if err != nil {
		fail(err)
	}
	rendered, err := ch.RenderASCII(72, 16)
	if err != nil {
		fail(err)
	}
	fmt.Println(rendered)
	fmt.Println(experiment.KSweepTable(points))
}

// runNSweep prints QLEC's constant-density scalability sweep.
func runNSweep(ctx context.Context, quick bool) {
	cfg := experiment.PaperConfig()
	lambda := 4.0
	ns := []int{50, 100, 200, 400, 800}
	if quick {
		cfg.Rounds = 5
		cfg.Seeds = []uint64{1, 2}
		cfg.LifespanDeathLine = 4.9
		cfg.LifespanMaxRounds = 100
		ns = []int{50, 200}
	}
	fmt.Fprintf(os.Stderr, "running N sweep %v at λ=%g, %d seeds (×2 run kinds)...\n", ns, lambda, len(cfg.Seeds))
	done := sweepMeter(&cfg, "n-sweep cells")
	points, err := cfg.RunNSweep(ctx, experiment.QLEC, ns, lambda)
	done()
	if err != nil {
		fail(err)
	}
	fmt.Println(experiment.NSweepTable(points))
}

// runAblation prints the design-choice ladder of DESIGN.md §4 under
// congestion: full QLEC, each §3.1 improvement removed in turn, classic
// DEEC/LEACH, the paper's baselines and the unclustered strawman.
func runAblation(ctx context.Context, quick bool, kOver int) {
	cfg := experiment.PaperConfig()
	cfg.Lambdas = []float64{1.5}
	cfg.K = 8 // rerouting needs alternatives near k_opt; see EXPERIMENTS.md
	if kOver > 0 {
		cfg.K = kOver
	}
	cfg.LifespanDeathLine = 2.5
	if quick {
		cfg.Rounds = 5
		cfg.Seeds = []uint64{1, 2}
		cfg.LifespanDeathLine = 4.9
		cfg.LifespanMaxRounds = 200
	}
	ladder := []experiment.ProtocolID{
		experiment.QLEC, experiment.QLECNoFloor, experiment.QLECNoRR,
		experiment.DEECNearest, experiment.DEECPlain, experiment.LEACH,
		experiment.KMeans, experiment.FCM, experiment.Direct,
	}
	fmt.Fprintf(os.Stderr, "running ablation ladder: %d variants × %d seeds (×2 run kinds)...\n",
		len(ladder), len(cfg.Seeds))
	done := sweepMeter(&cfg, "ablation cells")
	sweep, err := cfg.RunFig3(ctx, ladder)
	done()
	if err != nil {
		fail(err)
	}
	fmt.Println(experiment.Fig3Table(sweep))
}

// fig4Config is the Figure 4 experiment the flags select; -fig dataset
// inspects its dataset. With -data the file's nodes replace the
// synthetic set and, unless -k is given, Theorem 1 picks k.
func fig4Config(ctx context.Context, quick bool, kOver int, dataPath string, reps int) experiment.Fig4Config {
	cfg := experiment.PaperFig4Config()
	if kOver > 0 {
		cfg.K = kOver
	}
	if quick {
		cfg.Synth.N = 400
		cfg.K = 30
		cfg.Rounds = 3
	}
	if reps > 1 {
		for r := 0; r < reps; r++ {
			cfg.Seeds = append(cfg.Seeds, cfg.Synth.Seed+uint64(r))
		}
	}
	if dataPath != "" {
		ds, err := loadData(ctx, dataPath, cfg.Synth)
		if err != nil {
			fail(err)
		}
		cfg.Data = ds
		if kOver == 0 {
			cfg.K = 0
		}
	}
	return cfg
}

// loadData reads an x,y,z,energy_j CSV, whose header starts with x, or
// else a WRI Global Power Plant Database CSV. WRI rows of China (CHN)
// map onto synth's footprint, height and mean energy, with heights
// drawn from a fixed stream whose name predates this command and keeps
// converted datasets as they were.
func loadData(ctx context.Context, path string, synth dataset.SynthConfig) (*dataset.Dataset, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	raw, err := io.ReadAll(cli.Reader(ctx, fh))
	if err != nil {
		return nil, err
	}
	if header, _ := csv.NewReader(bytes.NewReader(raw)).Read(); len(header) > 0 &&
		strings.EqualFold(strings.TrimSpace(header[0]), "x") {
		return dataset.LoadCSV(bytes.NewReader(raw))
	}
	ds, err := dataset.LoadWRICSV(bytes.NewReader(raw), "CHN", synth.Side, synth.MaxHeight, synth.MeanEnergy,
		rng.NewNamed(synth.Seed, "qlecdata/heights"))
	if err != nil {
		return nil, fmt.Errorf("%s: no x,y,z,energy_j header, and as a WRI database CSV: %w", path, err)
	}
	return ds, nil
}

func runFig4(ctx context.Context, out string, cfg experiment.Fig4Config) {
	n := cfg.Synth.N
	if cfg.Data != nil {
		n = len(cfg.Data.Positions)
	}
	k := strconv.Itoa(cfg.K)
	if cfg.K == 0 {
		k = "Theorem 1" // runFig4Once picks k per replicate
	}
	fmt.Fprintf(os.Stderr, "running Figure 4: %d nodes, k=%s, %d rounds, %d replicate(s)...\n",
		n, k, cfg.Rounds, max(len(cfg.Seeds), 1))
	m := cli.NewMeter(os.Stderr)
	cfg.Workers = workers
	cfg.Progress = m.SweepProgress("fig4 replicates")
	res, err := qlec.ReproduceFigure4Context(ctx, cfg)
	m.Close()
	if err != nil {
		fail(err)
	}
	hm := experiment.Fig4Heatmap(res, 72, 24)
	s, err := hm.RenderASCII()
	if err != nil {
		fail(err)
	}
	fmt.Println(s)
	fmt.Println(experiment.Fig4Summary(res))
	if out != "" {
		writeFile(filepath.Join(out, "fig4.csv"), hm.WriteCSV)
	}
}

// runDataset prints Figure 4's dataset: a summary table and a node
// density map over XY. With out set it also writes out/dataset.csv.
func runDataset(out string, cfg experiment.Fig4Config) {
	ds := cfg.Data
	if ds == nil {
		var err error
		if ds, err = dataset.Synthesize(cfg.Synth); err != nil {
			fail(err)
		}
	}
	energies := make([]float64, len(ds.Energies))
	for i, e := range ds.Energies {
		energies[i] = float64(e)
	}
	s := stats.Summarize(energies)
	fmt.Println(plot.Table(
		[]string{"property", "value"},
		[][]string{
			{"nodes", fmt.Sprintf("%d", len(ds.Positions))},
			{"box", fmt.Sprintf("%v – %v", ds.Box.Min, ds.Box.Max)},
			{"BS", ds.BS.String()},
			{"energy mean (J)", fmt.Sprintf("%.4f", s.Mean)},
			{"energy stddev (J)", fmt.Sprintf("%.4f", s.StdDev)},
			{"energy min/max (J)", fmt.Sprintf("%.4f / %.4f", s.Min, s.Max)},
			{"energy median (J)", fmt.Sprintf("%.4f", stats.Median(energies))},
		},
	))

	// Each node's value is the node count of its cell on a cols×rows
	// grid over XY.
	const cols, rows = 64, 20
	cell := func(p geom.Vec3) [2]int {
		return [2]int{
			min(int(float64(cols)*p.X/ds.Box.Max.X), cols-1),
			min(int(float64(rows)*(ds.Box.Max.Y-p.Y)/ds.Box.Max.Y), rows-1),
		}
	}
	counts := map[[2]int]float64{}
	for _, p := range ds.Positions {
		counts[cell(p)]++
	}
	density := make([]float64, len(ds.Positions))
	for i, p := range ds.Positions {
		density[i] = counts[cell(p)]
	}
	hm := &plot.Heatmap{
		Title: "node density (XY projection)",
		Box:   ds.Box,
		Cols:  cols, Rows: rows,
		Points: ds.Positions,
		Values: density,
	}
	if rendered, err := hm.RenderASCII(); err == nil {
		fmt.Println(rendered)
	}
	if out != "" {
		writeFile(filepath.Join(out, "dataset.csv"), ds.WriteCSV)
	}
}

// runTheorem1 evaluates Theorem 1 at the paper's network (N, side and
// packet size of PaperConfig, centre BS), cross-checks k_opt against
// the argmin of Eq. (6) composed with Lemma 1 over every k, and prints
// E_r(k) from k_opt/3 to 3·k_opt.
func runTheorem1() {
	cfg := experiment.PaperConfig()
	n, side, bits, model := cfg.N, cfg.Side, cfg.Sim.Bits, cfg.Model
	d := geom.ExpectedMeanDistCubeToCenter(side)
	kopt := model.OptimalClusterCount(n, side, d)
	kInt := max(1, int(math.Round(kopt)))

	fmt.Println(plot.Table(
		[]string{"quantity", "value"},
		[][]string{
			{"N", fmt.Sprintf("%d", n)},
			{"M (side)", fmt.Sprintf("%g m", side)},
			{"d_toBS", fmt.Sprintf("%.3f m", d)},
			{"ε_fs", fmt.Sprintf("%g J/bit/m²", float64(model.FreeSpace))},
			{"ε_mp", fmt.Sprintf("%g J/bit/m⁴", float64(model.MultiPath))},
			{"d₀ (crossover)", fmt.Sprintf("%.3f m", model.CrossoverDistance())},
			{"k_opt (Theorem 1)", fmt.Sprintf("%.3f", kopt)},
			{"k_opt rounded", fmt.Sprintf("%d", int(math.Round(kopt)))},
			{"d_c at k_opt (Eq. 5)", fmt.Sprintf("%.3f m", geom.CoverageRadius(side, kInt))},
			{"estimated R ([7], 5 J/node)", fmt.Sprintf("%d rounds", model.EstimatedLifespanRounds(
				energy.Joules(5*float64(n)), bits, n, kInt, side, d))},
		},
	))

	roundEnergy := func(k int) float64 {
		return float64(model.RoundEnergyAtK(bits, n, float64(k), side, d))
	}
	bestK, bestE := 1, math.Inf(1)
	for k := 1; k <= n; k++ {
		if e := roundEnergy(k); e < bestE {
			bestK, bestE = k, e
		}
	}
	fmt.Printf("\nbrute-force argmin of Eq. (6): k=%d (E_r=%.6g J)\n", bestK, bestE)
	if math.Abs(float64(bestK)-kopt) > 1.5 {
		fmt.Fprintf(os.Stderr, "warning: closed form %.2f and brute force %d disagree\n", kopt, bestK)
	}

	var rows [][]string
	for k := max(1, int(kopt/3)); k <= int(kopt*3); k++ {
		marker := ""
		if k == bestK {
			marker = "← argmin"
		}
		rows = append(rows, []string{fmt.Sprintf("%d", k), fmt.Sprintf("%.6g", roundEnergy(k)), marker})
	}
	fmt.Println()
	fmt.Println(plot.Table([]string{"k", "E_r (J/round)", ""}, rows))
}

// writeFile creates path, fills it with write and reports it on stderr.
func writeFile(path string, write func(io.Writer) error) {
	fh, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := write(fh); err != nil {
		fail(err)
	}
	if err := fh.Close(); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}
