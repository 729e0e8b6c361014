package audit_test

import (
	"bytes"
	"testing"

	"qlec/internal/audit"
)

// FuzzReadArtifact: ReadArtifact never panics, whatever the bytes. An
// artifact it accepts can be summarized (TopSpenders) and explained
// (ExplainNode) without a panic, compares clean against itself, and
// survives a WriteArtifact → ReadArtifact round trip: the ledger and
// decisions compare identical, and writing it again gives the same
// bytes. The corpus under testdata/fuzz/FuzzReadArtifact holds a real
// artifact of a tiny run, a wrong version, truncated JSON and a
// decision whose candidate and Q-value lists differ in length.
func FuzzReadArtifact(f *testing.F) {
	f.Add([]byte(`{"version":2,"ledger":[{"t":0.5,"round":0,"node":1,"cause":"rx","j":0.001}],"decisions":[]}`))
	f.Add([]byte(`{"version":2} trailing`))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := audit.ReadArtifact(bytes.NewReader(data))
		if err != nil {
			return
		}
		a.Report.TopSpenders(0)
		a.Report.TopSpenders(3)
		a.ExplainNode(0, -1)
		for _, d := range a.Decisions[:min(len(a.Decisions), 8)] {
			a.ExplainNode(d.Node, d.Round)
		}
		if d := audit.Compare(a, a); d != nil {
			t.Fatalf("an accepted artifact diverges from itself: %v", d)
		}
		var out bytes.Buffer
		if err := audit.WriteArtifact(&out, a); err != nil {
			t.Fatalf("an accepted artifact does not write: %v", err)
		}
		back, err := audit.ReadArtifact(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("a written artifact does not read back: %v\n%s", err, out.Bytes())
		}
		if d := audit.Compare(a, back); d != nil {
			t.Fatalf("the round trip diverged: %v", d)
		}
		var again bytes.Buffer
		if err := audit.WriteArtifact(&again, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), again.Bytes()) {
			t.Fatalf("a second write differs:\n%s\nvs\n%s", out.Bytes(), again.Bytes())
		}
	})
}
