package service

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzRequestJSON decodes arbitrary bytes into a Request the way the
// submit handlers do. Nothing may panic, Normalize must be idempotent,
// and a request that passes Validate must keep its Hash through a
// json.Marshal → decode → Normalize round trip, so a stored or
// forwarded request addresses the same cache entry as the submission.
// Seeds live in testdata/fuzz/FuzzRequestJSON.
func FuzzRequestJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Request
		if json.Unmarshal(data, &r) != nil {
			return
		}
		n := r.Normalize()
		if again := n.Normalize(); !reflect.DeepEqual(again, n) {
			t.Fatalf("Normalize is not idempotent:\nonce  %+v\ntwice %+v", n, again)
		}
		if n.Validate() != nil {
			return
		}
		h, err := n.Hash()
		if err != nil {
			t.Fatalf("valid request has no hash: %v", err)
		}
		b, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("valid request does not encode: %v", err)
		}
		var back Request
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("encoded request does not decode: %v\n%s", err, b)
		}
		if hb, err := back.Normalize().Hash(); err != nil || hb != h {
			t.Fatalf("hash %s after the round trip (err %v), want %s\n%s", hb, err, h, b)
		}
	})
}
