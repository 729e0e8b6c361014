package prof

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"qlec/internal/obs"
)

// sink defeats dead-allocation elimination in bracket tests.
var sink [][]byte

func TestBracketMeasuresAllocsAndCPU(t *testing.T) {
	b := Begin()
	sink = sink[:0]
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64*1024))
	}
	// Burn a little CPU so getrusage moves even on a fast box.
	x := 0
	deadline := time.Now().Add(30 * time.Millisecond)
	for time.Now().Before(deadline) {
		x++
	}
	u := b.End()
	_ = x
	if u.AllocBytes < 64*64*1024 {
		t.Fatalf("AllocBytes = %d, want >= %d", u.AllocBytes, 64*64*1024)
	}
	if u.WallSeconds <= 0 {
		t.Fatalf("WallSeconds = %v, want > 0", u.WallSeconds)
	}
	if runtime.GOOS == "linux" && u.CPUSeconds <= 0 {
		t.Fatalf("CPUSeconds = %v, want > 0 on linux", u.CPUSeconds)
	}
	// A closed bracket returns zero on re-End.
	if again := b.End(); !again.IsZero() {
		t.Fatalf("second End() = %+v, want zero", again)
	}
}

func TestUsageAddAndIsZero(t *testing.T) {
	var u Usage
	if !u.IsZero() {
		t.Fatal("zero Usage should report IsZero")
	}
	u.Add(Usage{CPUSeconds: 1, WallSeconds: 2, AllocBytes: 3, PeakHeapDelta: 4, GCCount: 5})
	u.Add(Usage{CPUSeconds: 1, AllocBytes: 7})
	if u.CPUSeconds != 2 || u.WallSeconds != 2 || u.AllocBytes != 10 ||
		u.PeakHeapDelta != 4 || u.GCCount != 5 {
		t.Fatalf("after Add: %+v", u)
	}
	if u.IsZero() {
		t.Fatal("non-zero Usage should not report IsZero")
	}
}

func TestRegisterRuntime(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterRuntime(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"qlecd_runtime_heap_live_bytes", "qlecd_runtime_heap_goal_bytes", "qlecd_runtime_goroutines"} {
		f := exp.Family(name)
		if f == nil || len(f.Samples) != 1 || f.Samples[0].Value <= 0 {
			t.Fatalf("%s: want one positive sample, got %+v", name, f)
		}
	}
	f := exp.Family("qlecd_runtime_gc_cpu_fraction")
	if f == nil || len(f.Samples) != 1 || f.Samples[0].Value < 0 || f.Samples[0].Value > 1 {
		t.Fatalf("qlecd_runtime_gc_cpu_fraction: want one sample in [0,1], got %+v", f)
	}
}
