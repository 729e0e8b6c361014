package obs

import "testing"

const (
	testTraceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	testSpanID  = "00f067aa0ba902b7"
)

// TestParseTraceParent pins the accepted traceparent forms: version 00
// has exactly four fields and two hex digits of flags, a later version
// may carry extra fields, and version ff and malformed IDs are refused.
func TestParseTraceParent(t *testing.T) {
	ids := testTraceID + "-" + testSpanID
	cases := []struct {
		in string
		ok bool
	}{
		{"00-" + ids + "-01", true},
		{"00-" + ids + "-00", true},
		{" 00-" + ids + "-01\t", true},
		{"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01", true},
		{"00-" + ids + "-0A", true},
		{"01-" + ids + "-01", true},
		{"cc-" + ids + "-01-what-the-future-holds", true},

		{"00-" + ids + "-zz", false},
		{"00-" + ids + "-", false},
		{"00-" + ids + "-1", false},
		{"00-" + ids + "-001", false},
		{"00-" + ids + "-01-extra", false},
		{"00-" + ids + "-01-", false},
		{"cc-" + ids + "-zz-extra", false},
		{"ff-" + ids + "-01", false},
		{"0-" + ids + "-01", false},
		{"0g-" + ids + "-01", false},
		{"00-" + ids, false},
		{"00-00000000000000000000000000000000-" + testSpanID + "-01", false},
		{"00-" + testTraceID + "-0000000000000000-01", false},
		{"00-" + testTraceID[1:] + "-" + testSpanID + "-01", false},
		{"00-" + testTraceID + "-" + testSpanID + "0-01", false},
		{"", false},
	}
	for _, c := range cases {
		sc, ok := ParseTraceParent(c.in)
		if ok != c.ok {
			t.Errorf("ParseTraceParent(%q) ok = %v, want %v", c.in, ok, c.ok)
			continue
		}
		if !ok {
			if sc != (SpanContext{}) {
				t.Errorf("ParseTraceParent(%q) rejected but returned %+v", c.in, sc)
			}
			continue
		}
		if sc.TraceID != testTraceID || sc.SpanID != testSpanID || sc.Parent != "" {
			t.Errorf("ParseTraceParent(%q) = %+v", c.in, sc)
		}
	}
}

// FuzzParseTraceParent: parsing never panics, and an accepted header's
// context survives a render-and-parse round trip unchanged.
func FuzzParseTraceParent(f *testing.F) {
	f.Add("00-" + testTraceID + "-" + testSpanID + "-01")
	f.Add("00-" + testTraceID + "-" + testSpanID + "-zz")
	f.Add("cc-" + testTraceID + "-" + testSpanID + "-01-extra")
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := ParseTraceParent(s)
		if !ok {
			return
		}
		if !sc.Valid() {
			t.Fatalf("ParseTraceParent(%q) accepted invalid %+v", s, sc)
		}
		wire := sc.TraceParent()
		back, ok := ParseTraceParent(wire)
		if !ok || back != sc {
			t.Fatalf("ParseTraceParent(%q) = %+v; its rendering %q parses to %+v, %v", s, sc, wire, back, ok)
		}
	})
}
