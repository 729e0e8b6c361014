package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// chromeDoc is the subset of the trace_event envelope the tests read.
type chromeDoc struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		Dur   int64          `json:"dur"`
		PID   int            `json:"pid"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func writeChrome(t *testing.T, spans []SpanRecord) chromeDoc {
	t.Helper()
	var b strings.Builder
	if err := WriteChromeTrace(&b, spans); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	return doc
}

func TestTraceStoreChromeEnvelope(t *testing.T) {
	st := NewTraceStore("d1", 0)
	sc := NewSpanContext()
	start := time.Now()
	st.Span(sc, "job j1", "job", start, start.Add(50*time.Millisecond), map[string]any{"kind": "one"})
	st.Instant(sc, "cell 1/4", "sweep", map[string]any{"done": 1})

	doc := writeChrome(t, st.Spans(sc.TraceID))
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	// process_name metadata, then the span and the instant.
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(doc.TraceEvents))
	}
	if m := doc.TraceEvents[0]; m.Phase != "M" || m.Args["name"] != "d1" {
		t.Errorf("lane metadata = %+v, want process_name d1", m)
	}
	span := doc.TraceEvents[1]
	if span.Phase != "X" || span.Dur != 50000 {
		t.Errorf("span = ph %q dur %dµs, want X 50000µs", span.Phase, span.Dur)
	}
	if span.Args["kind"] != "one" || span.Args["trace"] != sc.TraceID || span.Args["span"] != sc.SpanID {
		t.Errorf("span args = %v, want kind plus trace/span IDs", span.Args)
	}
	if doc.TraceEvents[2].Phase != "i" {
		t.Errorf("instant ph = %q, want i", doc.TraceEvents[2].Phase)
	}
}

// TestTraceStoreDropMarker: spans past the per-trace cap are refused,
// and the served trace says how many.
func TestTraceStoreDropMarker(t *testing.T) {
	st := NewTraceStore("d1", 0)
	st.maxSpans = 10
	sc := NewSpanContext()
	for i := 0; i < 25; i++ {
		st.Instant(sc, "ev", "test", nil)
	}
	spans := st.Spans(sc.TraceID)
	if len(spans) != 11 {
		t.Fatalf("got %d records, want 10 kept + 1 drop marker", len(spans))
	}
	doc := writeChrome(t, spans)
	last := doc.TraceEvents[len(doc.TraceEvents)-1]
	if last.Name != "spans dropped (trace cap reached)" || last.Phase != "i" {
		t.Fatalf("last event = %+v, want the drop marker instant", last)
	}
	if got := last.Args["dropped"]; got != float64(15) {
		t.Errorf("dropped = %v, want 15", got)
	}
	// Under the cap there is no marker.
	other := NewSpanContext()
	st.Instant(other, "ev", "test", nil)
	if got := st.Spans(other.TraceID); len(got) != 1 {
		t.Errorf("uncapped trace has %d records, want 1", len(got))
	}
}

func TestNilTraceStoreNoops(t *testing.T) {
	var st *TraceStore
	sc := NewSpanContext()
	st.Span(sc, "x", "y", time.Now(), time.Now(), nil) // must not panic
	st.Instant(sc, "x", "y", nil)
	if st.Spans(sc.TraceID) != nil || st.Traces() != 0 {
		t.Error("nil store reported spans")
	}
}

// TestTraceStoreConcurrent records into a store from several goroutines
// while others read it; under -race this checks the store and its
// bounded trace map lock together.
func TestTraceStoreConcurrent(t *testing.T) {
	st := NewTraceStore("d1", 2)
	st.maxSpans = 50
	traces := []SpanContext{NewSpanContext(), NewSpanContext()}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				st.Instant(traces[i%2], "ev", "test", nil)
				st.Spans(traces[(i+1)%2].TraceID)
				st.Traces()
			}
		}()
	}
	wg.Wait()
	for _, sc := range traces {
		spans := st.Spans(sc.TraceID)
		if len(spans) != 51 || spans[50].Args["dropped"] != 150 {
			t.Errorf("trace holds %d records, want 50 kept + a marker counting 150 dropped", len(spans))
		}
	}
}
