package obs

import "context"

type ctxKey int

const (
	ctxKeyRequestID ctxKey = iota
	ctxKeyMetrics
	ctxKeyTrace
	ctxKeySpan
)

// ContextWithRequestID attaches a correlation ID to ctx.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKeyRequestID, id)
}

// RequestIDFromContext returns the correlation ID, or "".
func RequestIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}

// ContextWithMetrics attaches a metric registry so deeply nested code
// (the experiment executor inside a service worker) can export live
// gauges without threading a parameter through every signature.
func ContextWithMetrics(ctx context.Context, r *Registry) context.Context {
	return context.WithValue(ctx, ctxKeyMetrics, r)
}

// MetricsFromContext returns the registry, or nil — callers must treat
// nil as "instrumentation off" and skip all metric work.
func MetricsFromContext(ctx context.Context) *Registry {
	r, _ := ctx.Value(ctxKeyMetrics).(*Registry)
	return r
}

// ContextWithTrace attaches the span store the current job records
// into; the job's own span travels separately via ContextWithSpan.
func ContextWithTrace(ctx context.Context, t *TraceStore) context.Context {
	return context.WithValue(ctx, ctxKeyTrace, t)
}

// TraceFromContext returns the span store, or nil (tracing off; a nil
// store's methods are no-ops).
func TraceFromContext(ctx context.Context) *TraceStore {
	t, _ := ctx.Value(ctxKeyTrace).(*TraceStore)
	return t
}
