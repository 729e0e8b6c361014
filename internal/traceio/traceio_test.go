package traceio

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"qlec/internal/experiment"
	"qlec/internal/sim"
)

// traceOf runs a small QLEC simulation with the JSONL tracer and returns
// the raw trace plus the run's metrics for cross-checking.
func traceOf(t *testing.T) (string, int, int, int) {
	t.Helper()
	cfg := experiment.PaperConfig()
	cfg.Rounds = 3
	cfg.Seeds = []uint64{1}
	var sb strings.Builder
	tracer, flush := sim.JSONLTracer(&sb)
	res, err := cfg.RunOneWith(context.Background(), experiment.QLEC, 3, 1, false, experiment.Hooks{Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	return sb.String(), res.Generated, res.Delivered, res.DroppedTotal()
}

func TestParseAndAnalyzeConsistentWithMetrics(t *testing.T) {
	raw, gen, del, drop := traceOf(t)
	events, err := ParseJSONL(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	if s.Generated != gen || s.Delivered != del || s.Dropped != drop {
		t.Fatalf("trace (%d,%d,%d) != metrics (%d,%d,%d)",
			s.Generated, s.Delivered, s.Dropped, gen, del, drop)
	}
	if s.Events != len(events) {
		t.Fatal("event count mismatch")
	}
	// Sends = accepts + rejects.
	if s.ByKind[sim.TraceSend] != s.ByKind[sim.TraceAccept]+s.ByKind[sim.TraceReject] {
		t.Fatal("send/accept/reject accounting broken")
	}
	// Three rounds tallied, ascending.
	if len(s.Rounds) != 3 {
		t.Fatalf("%d round tallies", len(s.Rounds))
	}
	sumGen := 0
	for i, rt := range s.Rounds {
		if rt.Round != i {
			t.Fatalf("round order: %+v", s.Rounds)
		}
		sumGen += rt.Generated
	}
	if sumGen != gen {
		t.Fatalf("per-round generated sums to %d, want %d", sumGen, gen)
	}
	// Attempts ≥ 1 per packet; access delay positive.
	if s.AttemptsPerPacket.Mean < 1 {
		t.Fatalf("mean attempts %v < 1", s.AttemptsPerPacket.Mean)
	}
	if s.AccessDelay.Mean <= 0 {
		t.Fatalf("access delay %v", s.AccessDelay.Mean)
	}
	if len(s.HeadLoad) == 0 {
		t.Fatal("no head load recorded")
	}
}

func TestTopLoads(t *testing.T) {
	s := &Stats{HeadLoad: map[int]int{3: 10, 7: 30, 2: 30, 9: 5}}
	top := s.TopLoads(3)
	want := [][2]int{{2, 30}, {7, 30}, {3, 10}}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("TopLoads = %v, want %v", top, want)
		}
	}
	if got := s.TopLoads(100); len(got) != 4 {
		t.Fatalf("TopLoads over-capped: %d", len(got))
	}
}

func TestParseJSONLErrors(t *testing.T) {
	if _, err := ParseJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
	events, err := ParseJSONL(strings.NewReader("\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatal("blank lines produced events")
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	if _, err := Analyze(nil); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestAnalyzeDropReasons(t *testing.T) {
	// Force queue drops and verify the reason tally.
	cfg := experiment.PaperConfig()
	cfg.Rounds = 2
	cfg.Seeds = []uint64{1}
	cfg.Sim.QueueCapacity = 2
	cfg.Sim.ServiceTime = 1
	var sb strings.Builder
	tracer, flush := sim.JSONLTracer(&sb)
	if _, err := cfg.RunOneWith(context.Background(), experiment.KMeans, 1, 1, false, experiment.Hooks{Tracer: tracer}); err != nil {
		t.Fatal(err)
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	events, err := ParseJSONL(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	if s.DropReasons["queue"] == 0 {
		t.Fatalf("no queue drops recorded: %v", s.DropReasons)
	}
}

func TestFilter(t *testing.T) {
	events := []sim.TraceEvent{
		{Kind: sim.TraceGenerate, Round: 0, Node: 1},
		{Kind: sim.TraceSend, Round: 0, Node: 1, Target: 2},
		{Kind: sim.TraceAccept, Round: 0, Node: 2, Target: 2},
		{Kind: sim.TraceSend, Round: 1, Node: 3, Target: 2},
		{Kind: sim.TraceGenerate, Round: 1, Node: 4},
	}

	// Both restrictions disabled: the identical slice comes back.
	if got := Filter(events, -1, -1); len(got) != len(events) {
		t.Fatalf("unfiltered length %d, want %d", len(got), len(events))
	}

	// Node filter keeps actor AND target matches, so both halves of a
	// send/accept exchange survive.
	if got := Filter(events, 2, -1); len(got) != 3 {
		t.Fatalf("node filter kept %d events, want 3: %+v", len(got), got)
	}

	// Round filter alone.
	if got := Filter(events, -1, 1); len(got) != 2 {
		t.Fatalf("round filter kept %d events, want 2: %+v", len(got), got)
	}

	// Conjunction: node 2 in round 1 is only the relayed send.
	got := Filter(events, 2, 1)
	if len(got) != 1 || got[0].Node != 3 || got[0].Target != 2 {
		t.Fatalf("conjunction kept %+v", got)
	}

	// No matches yields an empty (nil) slice, not an error.
	if got := Filter(events, 99, -1); len(got) != 0 {
		t.Fatalf("impossible filter kept %+v", got)
	}
}

// TestParsersTakeOneObjectPerLine pins ParseJSONL to exactly one JSON
// object per non-blank line: trailing data or a second value after the
// object, and a line holding null or any other non-object value, are
// errors naming the line, where null used to parse as a zero-valued
// record. JSON whitespace around the object is allowed.
func TestParsersTakeOneObjectPerLine(t *testing.T) {
	const rec = `{"round":1,"node":2}`
	for _, c := range []struct {
		name string
		line string
		ok   bool
	}{
		{"object", rec, true},
		{"object in JSON whitespace", " \t" + rec + " \t\r", true},
		{"trailing garbage", rec + " trailing-garbage", false},
		{"second object", rec + `{"round":3}`, false},
		{"second value", rec + " 7", false},
		{"stray brace", rec + "}", false},
		{"null", "null", false},
		{"padded null", " null ", false},
		{"array", "[" + rec + "]", false},
		{"number", "7", false},
		{"string", `"x"`, false},
		{"whitespace only", " \t", false},
	} {
		evs, err := ParseJSONL(strings.NewReader(rec + "\n" + c.line + "\n"))
		switch {
		case c.ok && (err != nil || len(evs) != 2):
			t.Errorf("%s: %d records, err %v; want 2 and no error", c.name, len(evs), err)
		case !c.ok && err == nil:
			t.Errorf("%s: %d records and no error, want an error", c.name, len(evs))
		case !c.ok && !strings.Contains(err.Error(), "line 2"):
			t.Errorf("%s: error %q does not name line 2", c.name, err)
		}
	}
}

// maxFuzzLine bounds the fuzz inputs the round-trip properties check.
// Re-encoding escapes a byte into up to six ("<" becomes \u003c), and
// the parsers refuse lines over 1 MiB, so a longer input could fail the
// second parse for its length alone.
const maxFuzzLine = 64 << 10

// FuzzParseJSONL checks that ParseJSONL never panics, and that the
// events of any input it accepts come back equal after the tracer's
// encoding (sim.JSONLTracer) and a second parse.
func FuzzParseJSONL(f *testing.F) {
	f.Add([]byte(`{"t":0.5,"kind":"send","round":0,"pkt":7,"node":3,"target":9,"attempt":1}` + "\n"))
	f.Add([]byte(`{"t":1,"kind":"drop","round":1,"pkt":8,"node":4,"reason":"queue"}` + "\r\n\n" + `{"kind":"deliver"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzLine {
			return
		}
		events, err := ParseJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		tracer, flush := sim.JSONLTracer(&buf)
		for _, ev := range events {
			tracer(ev)
		}
		if err := flush(); err != nil {
			t.Fatalf("re-encoding accepted events: %v", err)
		}
		again, err := ParseJSONL(&buf)
		if err != nil {
			t.Fatalf("re-parsing the encoded events: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(events, again) {
			t.Fatalf("round trip changed the events:\nfirst  %+v\nsecond %+v", events, again)
		}
	})
}
