package main

// Golden-stdout tests. The test records its inputs with the library
// (audit artifacts and a packet trace from tiny RunOne runs, and a
// two-lane Chrome trace from fixed spans), then runs this test binary
// again as qlecaudit (TestMain calls main when QLECAUDIT_MAIN is set)
// and compares stdout with testdata/<golden>.golden. On a mismatch the
// test prints the whole stdout; after an intended output change, check
// it and copy it into the golden file.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"qlec/internal/audit"
	"qlec/internal/experiment"
	"qlec/internal/obs"
	"qlec/internal/sim"
)

func TestMain(m *testing.M) {
	if os.Getenv("QLECAUDIT_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// record writes audit artifacts of seeds 1, 1 and 2 (a.json, a2.json,
// b.json), the packet trace of the first run (t.jsonl) and a Chrome
// trace (chrome.json) into dir.
func record(t *testing.T, dir string) {
	t.Helper()
	cfg := experiment.PaperConfig()
	cfg.N, cfg.K, cfg.Rounds = 12, 2, 2
	for _, run := range []struct {
		artifact, trace string
		seed            uint64
	}{{"a.json", "t.jsonl", 1}, {"a2.json", "", 1}, {"b.json", "", 2}} {
		c := cfg
		c.Audit = audit.New(audit.Options{})
		var trace *os.File
		var flush func() error
		if run.trace != "" {
			var err error
			if trace, err = os.Create(filepath.Join(dir, run.trace)); err != nil {
				t.Fatal(err)
			}
			c.Tracer, flush = sim.JSONLTracer(trace)
		}
		if _, err := c.RunOne(context.Background(), experiment.QLEC, 4, run.seed, false); err != nil {
			t.Fatal(err)
		}
		if trace != nil {
			if err := errors.Join(flush(), trace.Close()); err != nil {
				t.Fatal(err)
			}
		}
		art := c.Audit.Artifact()
		art.Build = obs.BuildInfo{} // the build stamp varies; the golden must not
		writeWith(t, filepath.Join(dir, run.artifact), func(fh *os.File) error { return audit.WriteArtifact(fh, art) })
	}
	spans := []obs.SpanRecord{
		{TraceID: "t1", Name: "batch b1", Cat: "batch", Instance: "peer-a", Phase: "X", StartUS: 1_000_000, DurUS: 5_000},
		{TraceID: "t1", Name: "steal grant", Cat: "steal", Instance: "peer-a", Phase: "i", StartUS: 1_000_400},
		{TraceID: "t1", Name: "cell 0", Cat: "cell", Instance: "peer-b", Phase: "X", StartUS: 1_000_500, DurUS: 2_250},
		{TraceID: "t1", Name: "cell 1", Cat: "cell", Instance: "peer-a", Phase: "X", StartUS: 1_001_000, DurUS: 1_500},
	}
	writeWith(t, filepath.Join(dir, "chrome.json"), func(fh *os.File) error { return obs.WriteChromeTrace(fh, spans) })
}

func writeWith(t *testing.T, path string, write func(*os.File) error) {
	t.Helper()
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(fh); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGolden(t *testing.T) {
	dir := t.TempDir()
	record(t, dir)
	in := func(name string) string { return filepath.Join(dir, name) }
	for _, tc := range []struct {
		golden string
		args   []string
		stdin  string // file fed to stdin, for "-" inputs
		code   int
	}{
		{"report", []string{"report", "-top", "5", in("a.json")}, "", 0},
		{"explain", []string{"explain", "-node", "3", in("a.json")}, "", 0},
		{"diff-identical", []string{"diff", in("a.json"), in("a2.json")}, "", 0},
		{"diff-diverged", []string{"diff", in("a.json"), in("b.json")}, "", 1},
		{"trace", []string{"trace", in("t.jsonl")}, "", 0},
		{"trace", []string{"trace", "-"}, in("t.jsonl"), 0},
		{"trace-filtered", []string{"trace", "-node", "3", "-round", "1", in("t.jsonl")}, "", 0},
		{"trace-chrome", []string{"trace", "-chrome", "-limit", "3", in("chrome.json")}, "", 0},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "QLECAUDIT_MAIN=1")
			if tc.stdin != "" {
				fh, err := os.Open(tc.stdin)
				if err != nil {
					t.Fatal(err)
				}
				defer fh.Close()
				cmd.Stdin = fh
			}
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			code := 0
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != tc.code {
				t.Fatalf("qlecaudit %q exited %d, want %d\n%s", tc.args, code, tc.code, stderr.Bytes())
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("qlecaudit %q stdout differs from testdata/%s.golden; got:\n%s", tc.args, tc.golden, got)
			}
		})
	}
}
