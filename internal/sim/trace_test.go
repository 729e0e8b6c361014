package sim

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"qlec/internal/energy"
)

// CountingTracer tallies events by kind.
type CountingTracer struct {
	Counts map[TraceKind]int
}

// NewCountingTracer returns an empty tally.
func NewCountingTracer() *CountingTracer {
	return &CountingTracer{Counts: make(map[TraceKind]int)}
}

// Trace implements Tracer (use ct.Trace as the function value).
func (ct *CountingTracer) Trace(ev TraceEvent) { ct.Counts[ev.Kind]++ }

func TestCountingTracerConsistentWithMetrics(t *testing.T) {
	w := paperNet(t, 50)
	proto := &stubProtocol{net: w, heads: []int{10, 30, 50, 70, 90}}
	cfg := DefaultConfig()
	cfg.MeanInterArrival = 2 // some congestion so rejects/drops occur
	cfg.QueueCapacity = 6
	e, _ := NewEngine(w, proto, energy.DefaultModel(), cfg)
	ct := NewCountingTracer()
	e.SetTracer(ct.Trace)
	res, err := e.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Counts[TraceGenerate] != res.Generated {
		t.Fatalf("trace generate %d != metrics %d", ct.Counts[TraceGenerate], res.Generated)
	}
	if ct.Counts[TraceDeliver] != res.Delivered {
		t.Fatalf("trace deliver %d != metrics %d", ct.Counts[TraceDeliver], res.Delivered)
	}
	if ct.Counts[TraceDrop] != res.DroppedTotal() {
		t.Fatalf("trace drop %d != metrics %d", ct.Counts[TraceDrop], res.DroppedTotal())
	}
	// Every radio attempt resolves exactly once.
	if ct.Counts[TraceSend] != ct.Counts[TraceAccept]+ct.Counts[TraceReject] {
		t.Fatalf("sends %d != accepts %d + rejects %d",
			ct.Counts[TraceSend], ct.Counts[TraceAccept], ct.Counts[TraceReject])
	}
	if ct.Counts[TraceService] == 0 {
		t.Fatal("no service events traced")
	}
}

func TestNilTracerIsFree(t *testing.T) {
	w := paperNet(t, 51)
	proto := &stubProtocol{net: w, heads: []int{10}}
	e, _ := NewEngine(w, proto, energy.DefaultModel(), DefaultConfig())
	e.SetTracer(nil)
	if _, err := e.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
}

func TestJSONLTracer(t *testing.T) {
	w := paperNet(t, 52)
	proto := &stubProtocol{net: w, heads: []int{10, 30}}
	cfg := DefaultConfig()
	cfg.MeanInterArrival = 8
	e, _ := NewEngine(w, proto, energy.DefaultModel(), cfg)
	var sb strings.Builder
	tracer, flush := JSONLTracer(&sb)
	e.SetTracer(tracer)
	res, err := e.Run(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) < res.Generated {
		t.Fatalf("only %d trace lines for %d packets", len(lines), res.Generated)
	}
	// Every line is valid JSON with a known kind, time and round.
	kinds := map[TraceKind]bool{
		TraceGenerate: true, TraceSend: true, TraceAccept: true,
		TraceReject: true, TraceService: true, TraceDeliver: true, TraceDrop: true,
	}
	for i, line := range lines {
		var ev TraceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if !kinds[ev.Kind] {
			t.Fatalf("line %d has unknown kind %q", i, ev.Kind)
		}
		if ev.Time < 0 || ev.Round != 0 {
			t.Fatalf("line %d has bad time/round: %+v", i, ev)
		}
	}
}

type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	f.n++
	if f.n > 2 {
		return 0, errWriteFail
	}
	return len(p), nil
}

var errWriteFail = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "disk full" }

func TestJSONLTracerSurfacesWriteErrors(t *testing.T) {
	w := paperNet(t, 53)
	proto := &stubProtocol{net: w, heads: []int{10}}
	e, _ := NewEngine(w, proto, energy.DefaultModel(), DefaultConfig())
	tracer, flush := JSONLTracer(&failingWriter{})
	e.SetTracer(tracer)
	if _, err := e.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if err := flush(); err == nil {
		t.Fatal("write failure not surfaced")
	}
}
