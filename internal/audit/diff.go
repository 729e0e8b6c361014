package audit

import (
	"fmt"
	"math"

	"qlec/internal/sim"
)

// Divergence describes the first point at which two audit streams
// disagree. Stream is "ledger" or "decisions"; Index is the position
// in that stream; Field names the first differing field; A/B render
// the two records ("<absent>" when one stream ended early).
type Divergence struct {
	Stream string `json:"stream"`
	Index  int    `json:"index"`
	Field  string `json:"field"`
	A      string `json:"a"`
	B      string `json:"b"`
}

func (d *Divergence) String() string {
	return fmt.Sprintf("first divergence in %s[%d] (%s):\n  A: %s\n  B: %s",
		d.Stream, d.Index, d.Field, d.A, d.B)
}

// Compare finds the first divergence between two artifacts from
// identically-seeded runs: the ledger streams are compared entry by
// entry, then the decision streams. Returns nil when the runs agree.
func Compare(a, b *Artifact) *Divergence {
	if d := DiffLedgers(a.Ledger, b.Ledger); d != nil {
		return d
	}
	return DiffDecisions(a.Decisions, b.Decisions)
}

// DiffLedgers returns the first entry-level divergence between two
// ledgers, or nil if they are identical.
func DiffLedgers(a, b []sim.EnergyEntry) *Divergence {
	for i := range min(len(a), len(b)) {
		if field := entryDiff(a[i], b[i]); field != "" {
			return &Divergence{
				Stream: "ledger", Index: i, Field: field,
				A: fmt.Sprintf("%+v", a[i]), B: fmt.Sprintf("%+v", b[i]),
			}
		}
	}
	return lengthDiff("ledger", len(a), len(b), func(i int, fromA bool) string {
		if fromA {
			return fmt.Sprintf("%+v", a[i])
		}
		return fmt.Sprintf("%+v", b[i])
	})
}

// DiffDecisions is DiffLedgers over decision records.
func DiffDecisions(a, b []DecisionRecord) *Divergence {
	for i := range min(len(a), len(b)) {
		if field := decisionDiff(a[i], b[i]); field != "" {
			return &Divergence{
				Stream: "decisions", Index: i, Field: field,
				A: fmt.Sprintf("%+v", a[i]), B: fmt.Sprintf("%+v", b[i]),
			}
		}
	}
	return lengthDiff("decisions", len(a), len(b), func(i int, fromA bool) string {
		if fromA {
			return fmt.Sprintf("%+v", a[i])
		}
		return fmt.Sprintf("%+v", b[i])
	})
}

func lengthDiff(stream string, la, lb int, render func(i int, fromA bool) string) *Divergence {
	if la == lb {
		return nil
	}
	d := &Divergence{Stream: stream, Index: min(la, lb), Field: "length", A: "<absent>", B: "<absent>"}
	if la > lb {
		d.A = render(lb, true)
	} else {
		d.B = render(la, false)
	}
	return d
}

// entryDiff names the first differing field, or "" when equal. Joules
// are compared exactly: same-seed runs are bit-reproducible, so any
// difference at all is a real divergence.
func entryDiff(a, b sim.EnergyEntry) string {
	switch {
	case a.Round != b.Round:
		return "round"
	case a.Time != b.Time:
		return "t"
	case a.Node != b.Node:
		return "node"
	case a.Cause != b.Cause:
		return "cause"
	case a.Joules != b.Joules:
		return "j"
	case a.HasPacket != b.HasPacket:
		return "hasPkt"
	case a.HasPacket && a.Packet != b.Packet:
		return "pkt"
	}
	return ""
}

func decisionDiff(a, b DecisionRecord) string {
	switch {
	case a.Round != b.Round:
		return "round"
	case a.Node != b.Node:
		return "node"
	case !intsEqual(a.Candidates, b.Candidates):
		return "candidates"
	case !floatsEqual(a.QValues, b.QValues):
		return "qValues"
	case a.Chosen != b.Chosen:
		return "chosen"
	case a.VBefore != b.VBefore:
		return "vBefore"
	case a.VAfter != b.VAfter:
		return "vAfter"
	case a.HasReward != b.HasReward:
		return "hasReward"
	case a.HasReward && (a.Success != b.Success || a.Reward != b.Reward || a.LinkP != b.LinkP):
		return "reward"
	}
	return ""
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}
