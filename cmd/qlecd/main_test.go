package main

// Each case runs this test binary again as qlecd (TestMain calls main
// when QLECD_MAIN is set) and checks how it exits.

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("QLECD_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestPeersWithoutSelf: fleet peers need this daemon's own URL, so
// -peers without -self fails at startup, before it listens.
func TestPeersWithoutSelf(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-peers", "x", "-data-dir", t.TempDir(), "-addr", "127.0.0.1:0", "-quiet")
	cmd.Env = append(os.Environ(), "QLECD_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("qlecd -peers x without -self: %v, want exit status 1", err)
	}
	const want = "qlecd: service: fleet peers configured without a self URL (set -self)\n"
	if stdout.Len() != 0 || stderr.String() != want {
		t.Fatalf("stdout %q, stderr %q; want no stdout and stderr %q", stdout.String(), stderr.String(), want)
	}
}
