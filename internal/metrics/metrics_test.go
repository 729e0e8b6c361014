package metrics

import (
	"strings"
	"testing"
)

func validResult() *Result {
	return &Result{
		Protocol:  "QLEC",
		Rounds:    2,
		Generated: 10,
		Delivered: 8,
		Dropped:   [numDropReasons]int{DropLink: 1, DropQueue: 1},
		PerRound: []RoundStats{
			{Round: 0, Generated: 6, Delivered: 5, Energy: 1},
			{Round: 1, Generated: 4, Delivered: 3, Energy: 2},
		},
		TotalEnergy: 3,
		FirstDead:   -1,
	}
}

func TestPDR(t *testing.T) {
	r := validResult()
	if got := r.PDR(); got != 0.8 {
		t.Fatalf("PDR = %v", got)
	}
	empty := &Result{}
	if got := empty.PDR(); got != 1 {
		t.Fatalf("PDR of no traffic = %v, want 1 (nothing lost)", got)
	}
}

func TestDroppedTotal(t *testing.T) {
	r := validResult()
	if got := r.DroppedTotal(); got != 2 {
		t.Fatalf("DroppedTotal = %d", got)
	}
	rs := RoundStats{Dropped: [numDropReasons]int{DropBatch: 3, DropDead: 1}}
	if got := rs.DroppedTotal(); got != 4 {
		t.Fatalf("round DroppedTotal = %d", got)
	}
}

func TestValidateAcceptsConsistent(t *testing.T) {
	if err := validResult().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesInconsistencies(t *testing.T) {
	for name, mut := range map[string]func(*Result){
		"negative counters":    func(r *Result) { r.Generated = -1 },
		"over-delivery":        func(r *Result) { r.Delivered = 100 },
		"negative energy":      func(r *Result) { r.TotalEnergy = -1 },
		"round count mismatch": func(r *Result) { r.Rounds = 5 },
		"per-round gen sum":    func(r *Result) { r.PerRound[0].Generated = 99 },
		"per-round energy sum": func(r *Result) { r.PerRound[1].Energy = 50 },
	} {
		r := validResult()
		mut(r)
		if err := r.Validate(); err == nil {
			t.Fatalf("%s not caught", name)
		}
	}
}

func TestWriteRoundsCSV(t *testing.T) {
	var sb strings.Builder
	if err := validResult().WriteRoundsCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "round,heads,generated") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,0,6,5,") {
		t.Fatalf("row 1 = %q", lines[1])
	}
}

func TestWriteRoundsCSVRejectsInvalid(t *testing.T) {
	r := validResult()
	r.Rounds = 7 // inconsistent
	var sb strings.Builder
	if err := r.WriteRoundsCSV(&sb); err == nil {
		t.Fatal("invalid result serialized")
	}
}

func TestDropReasonStrings(t *testing.T) {
	for reason, want := range map[DropReason]string{
		DropLink:  "link",
		DropQueue: "queue",
		DropBatch: "batch",
		DropDead:  "dead",
	} {
		if reason.String() != want {
			t.Fatalf("%d.String() = %q", reason, reason.String())
		}
	}
	if !strings.Contains(DropReason(99).String(), "99") {
		t.Fatal("unknown reason string unhelpful")
	}
}
