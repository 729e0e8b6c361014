// Command bench is the repository's benchmark. One invocation runs one
// workload in its own process, so the peak RSS it reports belongs to
// that workload, with at most two concurrent clients or workers. It
// prints an environment stamp, one line per metric as
// "<workload> <metric> <value> <unit> n=<samples>", and as the last line
// a JSON result. It exits non-zero when an operation fails or an output
// check does not hold. Layers are measured only from outside, by timing
// calls into their public functions.
//
// Usage, from the repository root (run.sh builds the program first):
//
//	bash bench/run.sh --workload paper-sweep [--seed S] [--seconds N]
//	                  [--trace 0|1] [--trace-out FILE]
//
// See bench/README.md for the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"qlec/internal/experiment"
	"qlec/internal/obs"
)

// golden pins the sha256 of each library workload's output at its
// default seed, so the benchmark doubles as a behaviour pin.
//
//go:embed testdata/golden.json
var golden []byte

// buildDir is where run.sh builds the program; runs keep their scratch
// data and trace files there too.
const buildDir = ".bench_build"

type workload struct {
	name        string
	defaultSeed uint64
	run         func(context.Context, runOpts) (*report, error)
}

var workloads = []workload{
	{"paper-sweep", 1, paperSweep},
	{"large-scale", 2019, largeScale},
	{"service-mixed", 1, serviceMixed},
	{"fleet-batch", 1, fleetBatch},
}

// runOpts is what a workload receives: its seed block, the length of
// its measured phase, its input sizes, and a tracer on traced runs.
type runOpts struct {
	seed    uint64
	seconds time.Duration
	trace   *tracer // nil on untraced runs
	scratch string  // parent directory for the service's data directory
	scale   scale
	golden  string // pinned output digest, "" when none applies
}

// scale fixes a workload's input sizes; the smoke test shrinks them.
type scale struct {
	sweep      experiment.Config       // Fig. 3 configuration (paper-sweep, fleet-batch)
	protocols  []experiment.ProtocolID // Fig. 3 protocols
	fig4       experiment.Fig4Config
	job        experiment.Config // service job configuration
	sweepEvery int               // one fig3 job per this many service jobs
	minReps    int               // least repetitions of a measured phase
	minJobs    int               // least jobs per service client
	probe      time.Duration     // fleet probe interval; 0 keeps qlecd's default
}

func paperScale() scale {
	return scale{
		sweep:      experiment.PaperConfig(),
		protocols:  []experiment.ProtocolID{experiment.QLEC, experiment.FCM, experiment.KMeans},
		fig4:       experiment.PaperFig4Config(),
		job:        experiment.PaperConfig(),
		sweepEvery: 50,
		minReps:    3,
		minJobs:    100,
	}
}

// seedBlock returns the n consecutive seeds starting at s.
func seedBlock(s uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = s + uint64(i)
	}
	return out
}

// checkGolden fails the ops of an output whose digest differs from the
// pinned one.
func (o runOpts) checkGolden(r *report, out []byte, ops int) {
	if o.golden == "" {
		return
	}
	sum := sha256.Sum256(out)
	if got := hex.EncodeToString(sum[:]); got != o.golden {
		r.fail(ops, "output sha256 %s, pinned %s in testdata/golden.json", got, o.golden)
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 0, "seed block (default: the workload's own)")
	seconds := fs.Int("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced measurement and reports the per-layer metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace file of a traced run (default "+buildDir+"/<workload>.trace.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: need --workload (%s), --seconds > 0 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	o := runOpts{
		seed:    w.defaultSeed,
		seconds: time.Duration(*seconds) * time.Second,
		scratch: filepath.Join(buildDir, "tmp"),
		scale:   paperScale(),
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			o.seed = *seed
		}
	})
	if o.seed == w.defaultSeed {
		var pins map[string]string
		if err := json.Unmarshal(golden, &pins); err != nil {
			fmt.Fprintln(stderr, "bench: testdata/golden.json:", err)
			return 1
		}
		o.golden = pins[w.name]
	}
	if *trace == 1 {
		o.trace = newTracer()
	}
	stampEnvironment(stdout, stderr)

	rep, err := w.run(context.Background(), o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if o.trace != nil {
		path := *traceOut
		if path == "" {
			path = filepath.Join(buildDir, w.name+".trace.json")
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = o.trace.writeFile(path)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench: write trace:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# trace %s (%d spans)\n", path, len(o.trace.spans))
	}
	if err := rep.write(stdout, o.trace != nil); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// stampEnvironment prints what the numbers depend on: cores, Go version
// and build, CPU model, and the source revision when the build has one.
func stampEnvironment(stdout, stderr io.Writer) {
	bi := obs.Version()
	rev := bi.Revision
	if rev == "" {
		rev = "unknown"
	}
	fmt.Fprintf(stdout, "# env numcpu=%d gomaxprocs=%d os=%s/%s go=%s revision=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH,
		runtime.Version(), rev, cpuModel())
	if runtime.NumCPU() < workers {
		fmt.Fprintf(stderr, "bench: warning: %d CPU(s); the workloads run %d workers, so numbers are not comparable with a %d-core run\n",
			runtime.NumCPU(), workers, workers)
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
