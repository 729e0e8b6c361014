package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"qlec/internal/service"
)

// debugLog returns a WithLogger option and a function that decodes the
// debug lines logged so far, one map per line.
func debugLog(t *testing.T) (Option, func() []map[string]any) {
	var buf bytes.Buffer
	l := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	return WithLogger(l), func() []map[string]any {
		var lines []map[string]any
		sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
		for sc.Scan() {
			var m map[string]any
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				t.Fatalf("log line %q: %v", sc.Text(), err)
			}
			lines = append(lines, m)
		}
		return lines
	}
}

// counts returns the values of field on the logged lines with msg.
func counts(lines []map[string]any, msg, field string) []float64 {
	var out []float64
	for _, m := range lines {
		if m["msg"] == msg {
			out = append(out, m[field].(float64))
		}
	}
	return out
}

// TestStatsCountRetries: two 500s before a success make three request
// attempts, and the debug log counts two retries.
func TestStatsCountRetries(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, `{"error":"flaky"}`, http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	logger, logged := debugLog(t)
	c := New(ts.URL, WithRetries(3), WithBackoff(time.Millisecond), logger)
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("Health after recovery: %v", err)
	}
	lines := logged()
	if n := hits.Load(); n != 3 {
		t.Fatalf("%d request attempts, want 3", n)
	}
	if got := counts(lines, "retrying request", "totalRetries"); fmt.Sprint(got) != "[1 2]" {
		t.Fatalf("logged retry totals %v, want [1 2]", got)
	}
	if got := counts(lines, "reconnecting event stream", "totalReconnects"); len(got) != 0 {
		t.Fatalf("stream reconnects logged on plain requests: %v", got)
	}
}

// TestStatsFinalFailure: exhausting the retry budget still makes and
// counts every attempt.
func TestStatsFinalFailure(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()

	logger, logged := debugLog(t)
	c := New(ts.URL, WithRetries(2), WithBackoff(time.Millisecond), logger)
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("Health succeeded against a dead server")
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("%d request attempts, want 3", n)
	}
	if got := counts(logged(), "retrying request", "totalRetries"); fmt.Sprint(got) != "[1 2]" {
		t.Fatalf("logged retry totals %v, want [1 2]", got)
	}
}

// TestStatsCountStreamReconnects: an SSE stream dropped mid-flight and
// resumed with Last-Event-ID logs one reconnect across two connects —
// and the resumed stream picks up after the last delivered event.
func TestStatsCountStreamReconnects(t *testing.T) {
	writeEvent := func(w http.ResponseWriter, e service.Event) {
		data, _ := json.Marshal(e)
		fmt.Fprintf(w, "id: %d\ndata: %s\n\n", e.Seq, data)
		w.(http.Flusher).Flush()
	}
	var conns atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		if conns.Add(1) == 1 {
			if r.Header.Get("Last-Event-ID") != "" {
				t.Error("first connection carried a Last-Event-ID")
			}
			// One progress event, then drop the connection without a
			// terminal state: the client must resume.
			writeEvent(w, service.Event{Seq: 1, Type: service.EventState, State: service.StateRunning})
			return
		}
		if got := r.Header.Get("Last-Event-ID"); got != "1" {
			t.Errorf("reconnect Last-Event-ID = %q, want \"1\"", got)
		}
		writeEvent(w, service.Event{Seq: 2, Type: service.EventState, State: service.StateDone})
	}))
	defer ts.Close()

	logger, logged := debugLog(t)
	c := New(ts.URL, WithRetries(3), WithBackoff(time.Millisecond), logger)
	var seqs []int
	err := c.Events(context.Background(), "j1", func(e service.Event) bool {
		seqs = append(seqs, e.Seq)
		return true
	})
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("delivered seqs = %v, want [1 2]", seqs)
	}
	if n := conns.Load(); n != 2 {
		t.Fatalf("%d stream connections, want 2", n)
	}
	if got := counts(logged(), "reconnecting event stream", "totalReconnects"); fmt.Sprint(got) != "[1]" {
		t.Fatalf("logged reconnect totals %v, want [1]", got)
	}
}
