package cli

import (
	"bytes"
	"compress/gzip"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestProfileWritesBothFiles: with -cpuprofile and -memprofile set,
// Start/Stop write each file as a gzip-compressed pprof profile.
func TestProfileWritesBothFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	p := ProfileFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	sink := 0
	for i := 0; i < 1_000_000; i++ {
		sink += i % 7
	}
	_ = sink
	p.Stop()
	for _, path := range []string{cpu, mem} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s is not gzip: %v", filepath.Base(path), err)
		}
		body, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if len(body) == 0 {
			t.Fatalf("%s holds an empty profile", filepath.Base(path))
		}
	}
}
