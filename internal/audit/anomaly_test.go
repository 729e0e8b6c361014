package audit_test

// Detector unit tests over synthetic streams, plus artifact and diff
// coverage (including the acceptance criterion that two
// identically-seeded runs diff clean).

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"qlec/internal/audit"
	"qlec/internal/energy"
	"qlec/internal/experiment"
	"qlec/internal/network"
	"qlec/internal/qlearn"
	"qlec/internal/rng"
	"qlec/internal/sim"
)

func boundRecorder(t *testing.T, lim audit.Limits, n int, initialJ energy.Joules) *audit.Recorder {
	t.Helper()
	w, err := network.Deploy(network.Deployment{N: n, Side: 100, InitialEnergy: initialJ}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	rec := audit.NewLimited(lim)
	if err := rec.Bind(w, 0.5, 3); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestBindIsSingleUse(t *testing.T) {
	rec := boundRecorder(t, audit.Limits{}, 4, 5)
	if err := rec.Bind(rec.Network(), 0, 1); err == nil {
		t.Fatal("second Bind accepted")
	}
}

func TestRoutingLoopDetector(t *testing.T) {
	rec := boundRecorder(t, audit.Limits{LoopTxThreshold: 3}, 4, 5)
	rec.AuditBeginRound(0, []int{0, 1, 2})
	for i := 0; i < 5; i++ {
		rec.AuditEnergy(sim.EnergyEntry{Round: 0, Node: i % 2, Cause: sim.CauseTx, Joules: 0.001, Packet: 7, HasPacket: true})
	}
	if got := rec.Report().AnomalyCounts[audit.AnomalyRoutingLoop]; got != 1 {
		t.Fatalf("routing-loop count %d, want 1 (fires once at threshold)", got)
	}
	// A fresh round resets per-packet counts.
	rec.AuditBeginRound(1, []int{0, 1, 2})
	rec.AuditEnergy(sim.EnergyEntry{Round: 1, Node: 0, Cause: sim.CauseTx, Joules: 0.001, Packet: 7, HasPacket: true})
	if got := rec.Report().AnomalyCounts[audit.AnomalyRoutingLoop]; got != 1 {
		t.Fatalf("count %d after round reset, want still 1", got)
	}
	// Burst transmissions without a packet id never trip the detector.
	for i := 0; i < 5; i++ {
		rec.AuditEnergy(sim.EnergyEntry{Round: 1, Node: 0, Cause: sim.CauseTx, Joules: 0.001})
	}
	if got := rec.Report().AnomalyCounts[audit.AnomalyRoutingLoop]; got != 1 {
		t.Fatalf("packet-less draws tripped the loop detector (count %d)", got)
	}
}

func TestCHStarvationDetector(t *testing.T) {
	rec := boundRecorder(t, audit.Limits{StarvationRounds: 2}, 6, 5)
	rec.AuditBeginRound(0, []int{0})    // 1 < target 3: streak 1
	rec.AuditBeginRound(1, []int{0, 1}) // streak 2 → fire
	rec.AuditBeginRound(2, []int{0})    // streak 3: no re-fire
	if got := rec.Report().AnomalyCounts[audit.AnomalyCHStarvation]; got != 1 {
		t.Fatalf("starvation count %d, want 1", got)
	}
	rec.AuditBeginRound(3, []int{0, 1, 2}) // target met: streak resets
	rec.AuditBeginRound(4, []int{0})
	rec.AuditBeginRound(5, []int{1})
	if got := rec.Report().AnomalyCounts[audit.AnomalyCHStarvation]; got != 2 {
		t.Fatalf("starvation count %d after second streak, want 2", got)
	}
}

func TestQDivergenceDetector(t *testing.T) {
	rec := boundRecorder(t, audit.Limits{QAbsThreshold: 100}, 4, 5)
	rec.RecordDecision(qlearn.Decision{Node: 1, Candidates: []int{-1, 2}, QValues: []float64{-3, -5}, Chosen: 2})
	if got := rec.Report().AnomalyCounts[audit.AnomalyQDivergence]; got != 0 {
		t.Fatalf("healthy Q-values flagged (%d)", got)
	}
	rec.RecordDecision(qlearn.Decision{Node: 1, Candidates: []int{-1, 2}, QValues: []float64{math.NaN(), -5}, Chosen: 2})
	rec.RecordDecision(qlearn.Decision{Node: 2, Candidates: []int{-1, 3}, QValues: []float64{-3, -101}, Chosen: 3})
	if got := rec.Report().AnomalyCounts[audit.AnomalyQDivergence]; got != 2 {
		t.Fatalf("divergence count %d, want 2 (one NaN, one blow-up)", got)
	}
}

func TestDeadNodeTxDetector(t *testing.T) {
	rec := boundRecorder(t, audit.Limits{}, 4, 2)
	rec.AuditBeginRound(0, []int{0, 1, 2})
	// Drain node 3 to the 0.5 J death line through the ledger itself.
	rec.AuditEnergy(sim.EnergyEntry{Round: 0, Node: 3, Cause: sim.CauseTx, Joules: 1.5, Packet: 1, HasPacket: true})
	if got := rec.Report().AnomalyCounts[audit.AnomalyDeadNodeTx]; got != 0 {
		t.Fatalf("draw down to the line flagged (%d)", got)
	}
	// Any further transmission is by a dead node.
	rec.AuditEnergy(sim.EnergyEntry{Round: 0, Node: 3, Cause: sim.CauseTx, Joules: 0.1, Packet: 2, HasPacket: true})
	if got := rec.Report().AnomalyCounts[audit.AnomalyDeadNodeTx]; got != 1 {
		t.Fatalf("dead-node tx count %d, want 1", got)
	}
	// Receives by a dead node are legal radio physics, not a tx bug.
	rec.AuditEnergy(sim.EnergyEntry{Round: 0, Node: 3, Cause: sim.CauseRx, Joules: 0.01, Packet: 3, HasPacket: true})
	if got := rec.Report().AnomalyCounts[audit.AnomalyDeadNodeTx]; got != 1 {
		t.Fatalf("rx tripped the dead-node detector (count %d)", got)
	}
}

// TestRewardJoin: an outcome for the chosen link lands on the latest
// decision; outcomes for other links or already-rewarded decisions do
// not.
func TestRewardJoin(t *testing.T) {
	rec := boundRecorder(t, audit.Limits{}, 6, 5)
	rec.AuditBeginRound(0, []int{2, 3})
	rec.RecordDecision(qlearn.Decision{Node: 1, Candidates: []int{-1, 2, 3}, QValues: []float64{-9, -3, -4}, Chosen: 2})
	rec.RecordOutcome(qlearn.Outcome{From: 1, To: 3, Success: true, Reward: -1}) // wrong link: ignored
	rec.RecordOutcome(qlearn.Outcome{From: 1, To: 2, Success: false, Reward: -2, LinkP: 0.7})
	rec.RecordOutcome(qlearn.Outcome{From: 1, To: 2, Success: true, Reward: -3}) // already rewarded
	ds := rec.Decisions()
	if len(ds) != 1 {
		t.Fatalf("%d decisions, want 1", len(ds))
	}
	d := ds[0]
	if !d.HasReward || d.Success || d.Reward != -2 || d.LinkP != 0.7 || d.Round != 0 {
		t.Fatalf("joined record %+v, want first matching outcome (reward −2, failure, round 0)", d)
	}
}

// TestArtifactRoundTripAndExplain: write → read preserves the streams,
// unknown versions are rejected, and ExplainNode filters correctly.
func TestArtifactRoundTripAndExplain(t *testing.T) {
	rec := audit.New(audit.Options{})
	c := experiment.PaperConfig()
	c.N = 30
	c.Rounds = 4
	c.Seeds = []uint64{1}
	if _, err := c.RunOneWith(context.Background(), experiment.QLEC, 4, 1, false, experiment.Hooks{Audit: rec}); err != nil {
		t.Fatal(err)
	}
	art := rec.Artifact()
	if art.Version != audit.ArtifactVersion || len(art.Ledger) == 0 || len(art.Decisions) == 0 {
		t.Fatalf("artifact version=%d ledger=%d decisions=%d", art.Version, len(art.Ledger), len(art.Decisions))
	}

	var buf bytes.Buffer
	if err := audit.WriteArtifact(&buf, art); err != nil {
		t.Fatal(err)
	}
	back, err := audit.ReadArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d := audit.Compare(art, back); d != nil {
		t.Fatalf("round trip diverged: %v", d)
	}
	if back.Report.TotalJ != art.Report.TotalJ || back.Report.Rounds != art.Report.Rounds {
		t.Fatalf("report changed in round trip: %+v vs %+v", back.Report, art.Report)
	}

	node := art.Decisions[0].Node
	round := art.Decisions[0].Round
	all := back.ExplainNode(node, -1)
	one := back.ExplainNode(node, round)
	if len(all) == 0 || len(one) == 0 || len(one) > len(all) {
		t.Fatalf("ExplainNode: %d for node, %d for node+round", len(all), len(one))
	}
	for _, d := range one {
		if d.Node != node || d.Round != round {
			t.Fatalf("filtered record %+v escaped node=%d round=%d", d, node, round)
		}
	}

	bad := bytes.Replace(buf.Bytes(), fmt.Appendf(nil, `"version": %d`, audit.ArtifactVersion), []byte(`"version": 99`), 1)
	if !bytes.Equal(bad, buf.Bytes()) {
		if _, err := audit.ReadArtifact(bytes.NewReader(bad)); err == nil {
			t.Fatal("version 99 artifact accepted")
		}
	} else {
		t.Fatal("version field not found in serialized artifact")
	}
}

// TestReadArtifactRejectsTrailingData: an artifact is one JSON value.
// A second artifact, or garbage, after it is an error, while trailing
// whitespace is not.
func TestReadArtifactRejectsTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if err := audit.WriteArtifact(&buf, audit.New(audit.Options{}).Artifact()); err != nil {
		t.Fatal(err)
	}
	one := buf.Bytes()
	if _, err := audit.ReadArtifact(bytes.NewReader(append(slices.Clip(one), " \n\t"...))); err != nil {
		t.Fatalf("artifact with trailing whitespace rejected: %v", err)
	}
	for name, in := range map[string][]byte{
		"two artifacts":    append(slices.Clip(one), one...),
		"trailing garbage": append(slices.Clip(one), "garbage"...),
	} {
		if _, err := audit.ReadArtifact(bytes.NewReader(in)); err == nil {
			t.Errorf("%s: accepted, want an error", name)
		}
	}
}

// TestDiffIdenticalSeeds is the acceptance criterion: two runs from the
// same seed must produce byte-identical ledgers and decision streams;
// a different seed must diverge, and Compare must locate the first
// difference.
func TestDiffIdenticalSeeds(t *testing.T) {
	run := func(seed uint64) *audit.Artifact {
		rec := audit.New(audit.Options{})
		c := experiment.PaperConfig()
		c.N = 30
		c.Rounds = 5
		c.Seeds = []uint64{seed}
		if _, err := c.RunOneWith(context.Background(), experiment.QLEC, 4, seed, false, experiment.Hooks{Audit: rec}); err != nil {
			t.Fatal(err)
		}
		return rec.Artifact()
	}
	a, b := run(1), run(1)
	if d := audit.Compare(a, b); d != nil {
		t.Fatalf("identically-seeded runs diverged: %v", d)
	}
	other := run(2)
	if d := audit.Compare(a, other); d == nil {
		t.Fatal("different seeds produced identical audit streams")
	}

	// Synthetic single-field mutations pinpoint the field.
	mut := *a
	mut.Ledger = append([]sim.EnergyEntry(nil), a.Ledger...)
	mut.Ledger[3].Joules *= 1.0000001
	d := audit.Compare(a, &mut)
	if d == nil || d.Stream != "ledger" || d.Index != 3 || d.Field != "j" {
		t.Fatalf("divergence %+v, want ledger[3].j", d)
	}
	trunc := *a
	trunc.Ledger = a.Ledger[:len(a.Ledger)-1]
	d = audit.Compare(a, &trunc)
	if d == nil || d.Field != "length" || d.Index != len(a.Ledger)-1 {
		t.Fatalf("truncation divergence %+v", d)
	}
}
