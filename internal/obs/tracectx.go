package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strings"
)

// TraceParentHeader is the HTTP header carrying the W3C-style trace
// context between peers. The value follows the traceparent format:
//
//	00-<32 hex trace id>-<16 hex span id>-01
//
// The fleet wire client injects it on every outbound call; the service
// HTTP middleware extracts it, so steal acquisitions, lease renewals,
// owner-cache proxy GET/PUTs and batch fan-out all join one trace.
const TraceParentHeader = "Traceparent"

// SpanContext identifies one span within one distributed trace.
type SpanContext struct {
	TraceID string // 32 lowercase hex chars, non-zero
	SpanID  string // 16 lowercase hex chars, non-zero
	Parent  string // parent span ID ("" for a root span)
}

// NewSpanContext starts a fresh trace with a root span.
func NewSpanContext() SpanContext {
	return SpanContext{TraceID: randHex(16), SpanID: randHex(8)}
}

// NewSpanID returns a fresh 16-hex-char span ID.
func NewSpanID() string { return randHex(8) }

// Child derives a new span in the same trace, parented on sc.
func (sc SpanContext) Child() SpanContext {
	return SpanContext{TraceID: sc.TraceID, SpanID: randHex(8), Parent: sc.SpanID}
}

// Valid reports whether sc carries a usable trace identity.
func (sc SpanContext) Valid() bool {
	return isHex(sc.TraceID, 32) && !allZero(sc.TraceID) &&
		isHex(sc.SpanID, 16) && !allZero(sc.SpanID)
}

// TraceParent renders sc in traceparent wire format. Invalid contexts
// render as "".
func (sc SpanContext) TraceParent() string {
	if !sc.Valid() {
		return ""
	}
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-01"
}

// ParseTraceParent parses a traceparent header value. Version 00 must
// have exactly four fields; a later version may append more, which are
// ignored, matching the W3C forward-compatibility rule. In every version
// the flags field is two hex digits and the trace/span IDs are
// well-formed; version ff is invalid.
func ParseTraceParent(s string) (SpanContext, bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 || (parts[0] == "00" && len(parts) != 4) {
		return SpanContext{}, false
	}
	if !isHex(parts[0], 2) || parts[0] == "ff" || !isHex(strings.ToLower(parts[3]), 2) {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: strings.ToLower(parts[1]), SpanID: strings.ToLower(parts[2])}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// ContextWithSpan returns a context carrying the span context.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, ctxKeySpan, sc)
}

// SpanFromContext returns the span context attached to ctx, if any.
// The zero SpanContext (Valid() == false) means "no trace".
func SpanFromContext(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(ctxKeySpan).(SpanContext)
	return sc
}

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// Degenerate but non-zero: keeps traces joinable even if the
		// entropy source is broken.
		for i := range b {
			b[i] = byte(i + 1)
		}
	}
	return hex.EncodeToString(b)
}

func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}
