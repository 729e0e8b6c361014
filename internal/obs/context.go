package obs

import "context"

type ctxKey int

const (
	ctxKeyRequestID ctxKey = iota
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
