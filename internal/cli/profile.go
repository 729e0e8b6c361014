package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profile holds the -cpuprofile/-memprofile flag values shared by every
// command-line tool. Register the flags with ProfileFlags, bracket the
// work with Start/Stop:
//
//	prof := cli.ProfileFlags(flag.CommandLine)
//	flag.Parse()
//	if err := prof.Start(); err != nil { ... }
//	defer prof.Stop()
//
// The resulting files load directly into `go tool pprof`.
type Profile struct {
	cpuPath string
	memPath string
	cpuFile *os.File
}

// ProfileFlags registers -cpuprofile and -memprofile on fs and returns
// the Profile that will honour them.
func ProfileFlags(fs *flag.FlagSet) *Profile {
	p := &Profile{}
	fs.StringVar(&p.cpuPath, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.memPath, "memprofile", "", "write a heap profile to this file on exit")
	return p
}

// Start begins CPU profiling when -cpuprofile was given. Call after
// flag parsing; a failure to open or start is returned so the tool can
// abort before doing real work with a half-configured profiler.
func (p *Profile) Start() error {
	if p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(p.cpuPath)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	p.cpuFile = f
	return nil
}

// Stop finishes the CPU profile and writes the heap profile, if either
// was requested. Profiling errors at shutdown are reported on stderr
// rather than returned — the tool's real output is already complete.
func (p *Profile) Stop() {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
		}
		p.cpuFile = nil
	}
	if p.memPath != "" {
		f, err := os.Create(p.memPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		} else {
			runtime.GC() // materialize a settled heap before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
			f.Close()
		}
	}
}
