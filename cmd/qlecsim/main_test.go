package main

// Golden-stdout tests. Each case runs this test binary again as qlecsim
// (TestMain calls main when QLECSIM_MAIN is set) and compares its stdout
// with testdata/<name>.golden. After an intended output change,
// regenerate a golden from the repo root with the case's arguments:
//
//	go run ./cmd/qlecsim -n 30 -rounds 3 -quiet > cmd/qlecsim/testdata/run.golden

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("QLECSIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"run", []string{"-n", "30", "-rounds", "3", "-quiet"}},
		{"tournament", []string{"-tournament", "-protocols", "QLEC,LEACH", "-n", "24", "-k", "3",
			"-rounds", "3", "-maxrounds", "120", "-lambdas", "4", "-quiet"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "QLECSIM_MAIN=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("qlecsim %q: %v\n%s", tc.args, err, stderr.Bytes())
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("qlecsim %q stdout differs from testdata/%s.golden; got:\n%s", tc.args, tc.name, got)
			}
		})
	}
}
