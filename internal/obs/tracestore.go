package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// SpanRecord is one span (or instant) of a distributed trace in a
// peer-neutral form: absolute unix-microsecond timestamps plus the
// instance that recorded it. Peers exchange []SpanRecord over
// GET /v1/fleet/trace/{traceID}; WriteChromeTrace stitches records from
// many peers into one timeline with a lane per instance.
type SpanRecord struct {
	TraceID  string         `json:"traceId"`
	SpanID   string         `json:"spanId,omitempty"`
	Parent   string         `json:"parent,omitempty"`
	Name     string         `json:"name"`
	Cat      string         `json:"cat,omitempty"`
	Instance string         `json:"instance"`
	Phase    string         `json:"phase"`   // "X" complete span, "i" instant
	StartUS  int64          `json:"startUs"` // unix microseconds
	DurUS    int64          `json:"durUs,omitempty"`
	Args     map[string]any `json:"args,omitempty"`
}

// TraceStore bounds: traces are evicted FIFO past DefaultStoreTraces
// (or the instance's own cap), and each trace keeps at most
// maxStoreSpans records. A `one` job records a span per round, so a
// longer run keeps its first rounds and reports the rest as dropped.
const (
	DefaultStoreTraces = 256
	maxStoreSpans      = 20000
)

// TraceStore holds the spans this instance recorded, grouped by trace
// ID, bounded in both directions (trace count FIFO, spans per trace).
// It is the per-daemon half of cross-peer tracing: every peer keeps its
// own store, and whoever serves the merged view fans out to collect.
type TraceStore struct {
	instance string
	mu       sync.Mutex // guards the traceSpans held in traces
	traces   *Bounded[string, *traceSpans]
	maxSpans int // maxStoreSpans; tests lower it
}

// traceSpans is one trace's records plus the count refused past the
// per-trace cap.
type traceSpans struct {
	spans   []SpanRecord
	dropped int
}

// NewTraceStore returns a store labelling every span with instance.
// maxTraces <= 0 uses DefaultStoreTraces.
func NewTraceStore(instance string, maxTraces int) *TraceStore {
	if maxTraces <= 0 {
		maxTraces = DefaultStoreTraces
	}
	return &TraceStore{
		instance: instance,
		traces:   NewBounded[string, *traceSpans](maxTraces),
		maxSpans: maxStoreSpans,
	}
}

// Span records a complete span under sc's trace. No-op without a trace
// ID or on a nil store, so callers never need to guard.
func (s *TraceStore) Span(sc SpanContext, name, cat string, start, end time.Time, args map[string]any) {
	if s == nil || sc.TraceID == "" {
		return
	}
	dur := end.Sub(start).Microseconds()
	if dur < 1 {
		dur = 1 // zero-duration spans render invisibly in trace viewers
	}
	s.add(SpanRecord{
		TraceID: sc.TraceID, SpanID: sc.SpanID, Parent: sc.Parent,
		Name: name, Cat: cat, Instance: s.instance, Phase: "X",
		StartUS: start.UnixMicro(), DurUS: dur, Args: args,
	})
}

// Instant records a point event under sc's trace at time now.
func (s *TraceStore) Instant(sc SpanContext, name, cat string, args map[string]any) {
	if s == nil || sc.TraceID == "" {
		return
	}
	s.add(SpanRecord{
		TraceID: sc.TraceID, SpanID: sc.SpanID, Parent: sc.Parent,
		Name: name, Cat: cat, Instance: s.instance, Phase: "i",
		StartUS: time.Now().UnixMicro(), Args: args,
	})
}

func (s *TraceStore) add(r SpanRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.traces.Get(r.TraceID)
	if !ok {
		t = &traceSpans{}
		s.traces.Put(r.TraceID, t)
	}
	if len(t.spans) >= s.maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, r)
}

// Spans returns a copy of the records held for one trace. A trace that
// reached the per-trace cap ends in a "spans dropped" instant whose
// args.dropped counts the refused records.
func (s *TraceStore) Spans(traceID string) []SpanRecord {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.traces.Get(traceID)
	if !ok {
		return nil
	}
	out := append([]SpanRecord(nil), t.spans...)
	if t.dropped > 0 {
		out = append(out, SpanRecord{
			TraceID: traceID, Name: "spans dropped (trace cap reached)", Cat: "meta",
			Instance: s.instance, Phase: "i", StartUS: t.spans[len(t.spans)-1].StartUS,
			Args: map[string]any{"dropped": t.dropped},
		})
	}
	return out
}

// Traces returns the number of distinct traces currently held.
func (s *TraceStore) Traces() int {
	if s == nil {
		return 0
	}
	return s.traces.Len()
}

// traceEvent is one entry in the Chrome trace_event format. ph "X" is a
// complete span (ts+dur), "i" an instant, "M" metadata.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`            // microseconds since trace start
	Dur   int64          `json:"dur,omitempty"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant scope
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace merges span records — typically gathered from
// several peers — into one Chrome trace_event JSON document. Each
// instance becomes its own process lane (pid) named via process_name
// metadata; timestamps are rebased to the earliest span so the timeline
// starts at zero.
func WriteChromeTrace(w io.Writer, spans []SpanRecord) error {
	instances := make([]string, 0, 4)
	seen := make(map[string]bool)
	base := int64(0)
	for i, r := range spans {
		if !seen[r.Instance] {
			seen[r.Instance] = true
			instances = append(instances, r.Instance)
		}
		if i == 0 || r.StartUS < base {
			base = r.StartUS
		}
	}
	sort.Strings(instances)
	pid := make(map[string]int, len(instances))
	events := make([]traceEvent, 0, len(spans)+len(instances))
	for i, inst := range instances {
		pid[inst] = i + 1
		events = append(events, traceEvent{
			Name: "process_name", Cat: "__metadata", Phase: "M",
			PID: i + 1, TID: 1,
			Args: map[string]any{"name": inst},
		})
	}
	ordered := append([]SpanRecord(nil), spans...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].StartUS < ordered[j].StartUS })
	for _, r := range ordered {
		ev := traceEvent{
			Name: r.Name, Cat: r.Cat, Phase: r.Phase,
			TS: r.StartUS - base, Dur: r.DurUS,
			PID: pid[r.Instance], TID: 1,
		}
		if ev.Phase == "" {
			ev.Phase = "X"
		}
		if ev.Phase == "i" {
			ev.Scope = "t"
		}
		if r.SpanID != "" || r.Parent != "" || r.TraceID != "" {
			ev.Args = map[string]any{}
			for k, v := range r.Args {
				ev.Args[k] = v
			}
			if r.TraceID != "" {
				ev.Args["trace"] = r.TraceID
			}
			if r.SpanID != "" {
				ev.Args["span"] = r.SpanID
			}
			if r.Parent != "" {
				ev.Args["parentSpan"] = r.Parent
			}
		} else {
			ev.Args = r.Args
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ms"})
}
