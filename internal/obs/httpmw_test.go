package obs

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMiddlewareRequestID(t *testing.T) {
	var seen string
	h := Middleware(nil, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestIDFromContext(r.Context())
	}))

	// Provided ID flows through and is echoed.
	req := httptest.NewRequest("GET", "/x", nil)
	req.Header.Set(RequestIDHeader, "abc123")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if seen != "abc123" {
		t.Errorf("context request ID = %q, want abc123", seen)
	}
	if got := rr.Header().Get(RequestIDHeader); got != "abc123" {
		t.Errorf("echoed header = %q, want abc123", got)
	}

	// Absent ID is generated.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/x", nil))
	if seen == "" || seen == "abc123" {
		t.Errorf("generated ID = %q, want fresh non-empty", seen)
	}
	if rr.Header().Get(RequestIDHeader) != seen {
		t.Error("generated ID not echoed in response header")
	}
}

func TestMiddlewareMetricsAndLog(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r)
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	h := Middleware(logger, m, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/missing":
			w.WriteHeader(http.StatusNotFound)
			return
		case "/large":
			w.WriteHeader(http.StatusRequestEntityTooLarge)
			return
		}
		w.Write([]byte("ok"))
	}))

	for _, path := range []string{"/a", "/a", "/missing", "/large"} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	}

	if got := m.requests.With("GET", "200").Value(); got != 2 {
		t.Errorf(`requests{GET,200} = %v, want 2`, got)
	}
	if got := m.requests.With("GET", "404").Value(); got != 1 {
		t.Errorf(`requests{GET,404} = %v, want 1`, got)
	}
	if got := m.requests.With("GET", "413").Value(); got != 1 {
		t.Errorf(`requests{GET,413} = %v, want 1`, got)
	}
	if got := m.duration.With("GET").Count(); got != 4 {
		t.Errorf("duration count = %d, want 4", got)
	}
	if got := m.inflight.Value(); got != 0 {
		t.Errorf("inflight = %v, want 0 after completion", got)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "status=404") || !strings.Contains(logs, "requestId=") {
		t.Errorf("request log missing status/requestId fields:\n%s", logs)
	}
}

// TestMiddlewarePreservesFlusher guards the SSE path: the wrapped
// writer must still satisfy http.Flusher.
func TestMiddlewarePreservesFlusher(t *testing.T) {
	h := Middleware(nil, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := w.(http.Flusher); !ok {
			t.Error("middleware writer lost http.Flusher")
		}
		w.(http.Flusher).Flush()
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"WARN": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
	if _, err := NewLogger(&bytes.Buffer{}, slog.LevelInfo, "yaml"); err == nil {
		t.Error("NewLogger accepted an unknown format")
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b || len(a) != 16 {
		t.Errorf("request IDs %q, %q: want 16-hex, distinct", a, b)
	}
}
