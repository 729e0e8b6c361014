package obs

import (
	"bytes"
	"testing"
)

func TestRegisterRuntime(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntime(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(&buf)
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
