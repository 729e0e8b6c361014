package obs

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"
)

// HTTPMetrics holds the server-side request instruments registered by
// NewHTTPMetrics. Labels are bounded: method and status code only — no
// paths, which would explode cardinality with per-job URLs (see
// DESIGN.md §10).
type HTTPMetrics struct {
	requests *CounterVec   // qlecd_http_requests_total{method,code}
	duration *HistogramVec // qlecd_http_request_duration_seconds{method}
	inflight *Gauge        // qlecd_http_requests_in_flight
}

// DefaultDurationBuckets suit request latencies from sub-millisecond
// cache hits to multi-minute long polls.
var DefaultDurationBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

// NewHTTPMetrics registers the HTTP request instruments on r.
func NewHTTPMetrics(r *Registry) *HTTPMetrics {
	return &HTTPMetrics{
		requests: r.CounterVec("qlecd_http_requests_total",
			"HTTP requests served, by method and status code.", "method", "code"),
		duration: r.HistogramVec("qlecd_http_request_duration_seconds",
			"HTTP request latency in seconds.", DefaultDurationBuckets, "method"),
		inflight: r.Gauge("qlecd_http_requests_in_flight",
			"HTTP requests currently being served."),
	}
}

// Middleware wraps next with request-ID propagation, structured request
// logging, and HTTP metrics. Either logger or metrics may be nil to
// disable that half. The request ID is taken from X-Request-ID (or
// generated), stored on the request context, and echoed in the
// response header.
func Middleware(logger *slog.Logger, m *HTTPMetrics, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rid := req.Header.Get(RequestIDHeader)
		if rid == "" {
			rid = NewRequestID()
		}
		w.Header().Set(RequestIDHeader, rid)
		ctx := ContextWithRequestID(req.Context(), rid)
		if sc, ok := ParseTraceParent(req.Header.Get(TraceParentHeader)); ok {
			ctx = ContextWithSpan(ctx, sc)
		}
		req = req.WithContext(ctx)

		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		if m != nil {
			m.inflight.Inc()
		}
		next.ServeHTTP(sw, req)
		elapsed := time.Since(start)
		if m != nil {
			m.inflight.Dec()
			m.requests.With(req.Method, strconv.Itoa(sw.code)).Inc()
			m.duration.With(req.Method).Observe(elapsed.Seconds())
		}
		if logger != nil {
			logger.Info("http request",
				"method", req.Method,
				"path", req.URL.Path,
				"status", sw.code,
				"durationMs", float64(elapsed.Microseconds())/1000,
				"requestId", rid,
				"remote", req.RemoteAddr,
			)
		}
	})
}

// statusWriter captures the response status code while preserving the
// streaming interface the SSE endpoint depends on.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Flush keeps SSE streaming working through the middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
