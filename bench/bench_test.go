package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qlec/internal/experiment"
)

// tinyScale shrinks every workload so all four, untraced and traced,
// run in a few seconds.
func tinyScale() scale {
	sweep := experiment.PaperConfig()
	sweep.N, sweep.K, sweep.Rounds = 30, 3, 3
	sweep.Lambdas = []float64{4, 1}
	sweep.LifespanMaxRounds = 30
	fig4 := experiment.PaperFig4Config()
	fig4.Synth.N, fig4.K, fig4.Rounds = 200, 10, 3
	return scale{
		sweep:      sweep,
		protocols:  paperScale().protocols,
		fig4:       fig4,
		job:        sweep,
		sweepEvery: 6,
		minReps:    2,
		minJobs:    12,
		probe:      25 * time.Millisecond,
	}
}

// TestWorkloads runs every workload at tiny scale, untraced and traced,
// and checks that each run prints every metric BENCHMARK.json lists for
// its mode with the listed unit, that no operation failed (which covers
// traced outputs equal to untraced ones, and pinned outputs equal across
// repetitions), and that the traced run's spans load as JSON.
func TestWorkloads(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit string }
	var bench struct {
		EndToEnd []spec `json:"end_to_end"`
		PerLayer []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := runOpts{seed: w.defaultSeed, seconds: 100 * time.Millisecond, scratch: t.TempDir(), scale: tinyScale()}
			want := bench.EndToEnd
			if traced {
				o.trace = newTracer()
				want = bench.PerLayer
			}
			rep, err := w.run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			var out bytes.Buffer
			if err := rep.write(&out, traced); err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct{ Unit string }
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed:\n%s", w.name, traced, res.Failed, res.Attempted, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics in the result, BENCHMARK.json lists %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s printed with unit %q (present %v), want %q", w.name, traced, m.Name, got.Unit, ok, m.Unit)
				}
			}
			if traced {
				path := filepath.Join(t.TempDir(), "trace.json")
				if err := o.trace.writeFile(path); err != nil {
					t.Fatal(err)
				}
				b, err := os.ReadFile(path)
				if err != nil || !json.Valid(b) || len(o.trace.spans) == 0 {
					t.Errorf("%s: trace file with %d spans does not load as JSON (%v)", w.name, len(o.trace.spans), err)
				}
			}
		}
	}
}
