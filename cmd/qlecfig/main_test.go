package main

// Golden-stdout tests. Each case runs this test binary again as qlecfig
// (TestMain calls main when QLECFIG_MAIN is set) and compares its stdout
// with testdata/<name>.golden; a case may also pin a stderr line. testdata/wri.csv is a WRI Global Power
// Plant Database extract (the schema dataset.LoadWRICSV reads). After an
// intended output change, regenerate a golden from the repo root with
// the case's arguments:
//
//	go run ./cmd/qlecfig -fig theorem1 > cmd/qlecfig/testdata/theorem1.golden

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("QLECFIG_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string // a line stderr must hold, if set
	}{
		{"theorem1", []string{"-fig", "theorem1"}, ""},
		{"dataset-quick", []string{"-fig", "dataset", "-quick"}, ""},
		{"dataset-wri", []string{"-fig", "dataset", "-data", "testdata/wri.csv"}, ""},
		{"fig4-wri", []string{"-fig", "4", "-data", "testdata/wri.csv"},
			"running Figure 4: 3 nodes, k=Theorem 1, 20 rounds, 1 replicate(s)...\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "QLECFIG_MAIN=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("qlecfig %q: %v\n%s", tc.args, err, stderr.Bytes())
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("qlecfig %q stdout differs from testdata/%s.golden; got:\n%s", tc.args, tc.name, got)
			}
			if !bytes.Contains(stderr.Bytes(), []byte(tc.stderr)) {
				t.Errorf("qlecfig %q stderr lacks %q; got:\n%s", tc.args, tc.stderr, stderr.Bytes())
			}
		})
	}
}
