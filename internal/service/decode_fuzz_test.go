package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"qlec/internal/fleet"
)

// FuzzDecodeBody feeds arbitrary bodies to decodeBody, the decoder of
// every POST and PUT handler, for each body type they decode: a job
// Request, a batchSubmission, the fleet peer messages and a result
// envelope. Nothing may panic; decodeBody must accept exactly the bodies
// json.Unmarshal accepts (one JSON value, whitespace around it) and
// decode them to the same value; and a body longer than the limit must
// be rejected. Seeds live in testdata/fuzz/FuzzDecodeBody.
func FuzzDecodeBody(f *testing.F) {
	types := []func() any{
		func() any { return new(Request) },
		func() any { return new(batchSubmission) },
		func() any { return new(fleet.JoinRequest) },
		func() any { return new(fleet.StealRequest) },
		func() any { return new(fleet.CompleteRequest) },
		func() any { return new(fleet.RenewRequest) },
		func() any { return new(ResultEnvelope) },
	}
	decode := func(body []byte, limit int64, v any) error {
		r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		return decodeBody(httptest.NewRecorder(), r, limit, v)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, fresh := range types {
			got, want := fresh(), fresh()
			err := decode(body, 1<<20, got)
			uerr := json.Unmarshal(body, want)
			if (err == nil) != (uerr == nil) {
				t.Fatalf("%T: decodeBody err %v, json.Unmarshal err %v\n%q", got, err, uerr, body)
			}
			if err == nil {
				gb, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				wb, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gb, wb) {
					t.Fatalf("%T: decodeBody gives\n%s\njson.Unmarshal gives\n%s", got, gb, wb)
				}
			}
			if len(body) > 0 && decode(body, int64(len(body)-1), fresh()) == nil {
				t.Fatalf("%T: a %d-byte body passed a %d-byte limit", got, len(body), len(body)-1)
			}
		}
	})
}
