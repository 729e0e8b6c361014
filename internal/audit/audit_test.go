package audit_test

// End-to-end flight-recorder tests against real simulations, plus the
// acceptance-criteria invariant checks: conservation must hold over a
// full 20-round paper-scale run, and the checker must demonstrably
// fire when energy leaks outside the ledger.

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"qlec/internal/audit"
	"qlec/internal/energy"
	"qlec/internal/experiment"
	"qlec/internal/metrics"
	"qlec/internal/obs"
	"qlec/internal/sim"
)

// runAudited runs one QLEC simulation with the recorder installed and
// observer, when non-nil, called every round.
func runAudited(t *testing.T, rec *audit.Recorder, observer sim.Observer) *metrics.Result {
	t.Helper()
	c := experiment.PaperConfig()
	c.N = 40
	c.Rounds = 8
	c.Seeds = []uint64{1}
	res, err := c.RunOneWith(context.Background(), experiment.QLEC, 4, 1, false,
		experiment.Hooks{Audit: rec, Observer: observer})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestConservationGoldenRun is the acceptance criterion: over a full
// 20-round paper-configuration run, every per-round conservation check
// passes, and the final ledger reconciles with the engine's own
// accounting — per category and in total.
func TestConservationGoldenRun(t *testing.T) {
	rec := audit.New(audit.Options{})
	c := experiment.PaperConfig()
	c.Seeds = []uint64{1}
	res, err := c.RunOneWith(context.Background(), experiment.QLEC, 4, 1, false, experiment.Hooks{Audit: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 20 {
		t.Fatalf("ran %d rounds, want the paper's 20", res.Rounds)
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("conservation violations on a clean run: %v", err)
	}
	rep := rec.Report()
	if rep.Rounds != 20 || rep.Entries == 0 || rep.Decisions == 0 {
		t.Fatalf("report rounds=%d entries=%d decisions=%d, want 20/+/+", rep.Rounds, rep.Entries, rep.Decisions)
	}
	if !energy.ApproxEqual(rep.TotalJ, res.TotalEnergy) {
		t.Fatalf("ledger total %v, engine total %v", rep.TotalJ, res.TotalEnergy)
	}
	for _, c := range []struct {
		name           string
		ledger, engine energy.Joules
	}{
		{"tx", rep.TxJ, res.Energy.Tx},
		{"rx", rep.RxJ, res.Energy.Rx},
		{"fusion", rep.FusionJ, res.Energy.Fusion},
		{"control", rep.ControlJ, res.Energy.Control},
	} {
		if !energy.ApproxEqual(c.ledger, c.engine) {
			t.Errorf("%s: ledger %v, breakdown %v", c.name, c.ledger, c.engine)
		}
	}
	// Per-node closure: every row's categories sum to its total, and
	// initial − total == residual.
	for _, row := range rep.Nodes {
		if !energy.ApproxEqual(row.Tx+row.Rx+row.Fusion+row.Control, row.Total) {
			t.Fatalf("node %d: causes sum %v, total %v", row.Node, row.Tx+row.Rx+row.Fusion+row.Control, row.Total)
		}
		if !energy.ApproxEqual(row.Initial-row.Total, row.Residual) {
			t.Fatalf("node %d: initial %v − spent %v ≠ residual %v", row.Node, row.Initial, row.Total, row.Residual)
		}
	}
	// Q-decision explainability rode along: some decision carries a
	// joined reward from its subsequent ACK outcome.
	rewarded := 0
	for _, d := range rec.Decisions() {
		if d.HasReward {
			rewarded++
			if q := d.QValues[slices.Index(d.Candidates, d.Chosen)]; q != slices.Max(d.QValues) {
				t.Fatalf("decision %+v chose a target whose Q %v is not the largest", d, q)
			}
		}
	}
	if rewarded == 0 {
		t.Fatal("no decision record was joined with its outcome reward")
	}
}

// TestCheckerFiresOnInjectedLeak drains a battery behind the ledger's
// back mid-run; the next round's sweep must flag the leak, count it on
// the metrics registry, and surface a structured error.
func TestCheckerFiresOnInjectedLeak(t *testing.T) {
	reg := obs.NewRegistry()
	rec := audit.New(audit.Options{Metrics: reg})
	leakDone := false
	runAudited(t, rec, func(snap sim.RoundSnapshot) {
		if snap.Round == 2 && !leakDone {
			leakDone = true
			// Draw directly from a battery on the recorder's bound
			// network, bypassing the engine's classified draw helpers
			// — a joule the ledger never sees.
			rec.Network().Nodes[0].Battery.Draw(1)
		}
	})
	if !leakDone {
		t.Fatal("leak hook never fired")
	}
	err := rec.Err()
	if err == nil {
		t.Fatal("injected leak went undetected")
	}
	verr, ok := err.(*audit.ViolationError)
	if !ok {
		t.Fatalf("Err() = %T, want *audit.ViolationError", err)
	}
	if verr.Count == 0 || len(verr.First) == 0 {
		t.Fatalf("violation error carries no detail: %+v", verr)
	}
	if verr.First[0].Kind != "node-conservation" || verr.First[0].Node != 0 {
		t.Fatalf("first violation %+v, want node-conservation at node 0", verr.First[0])
	}
	if !strings.Contains(verr.Error(), "violation") {
		t.Fatalf("error %q does not mention violations", verr.Error())
	}

	var expo bytes.Buffer
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expo.String(), "qlec_audit_violations_total") {
		t.Fatalf("exposition missing qlec_audit_violations_total:\n%s", expo.String())
	}
}

// TestRingBounds: the in-memory ring keeps the newest MaxEntries
// entries, in order, and the report still counts every entry seen.
func TestRingBounds(t *testing.T) {
	rec := audit.NewLimited(audit.Limits{MaxEntries: 100})
	runAudited(t, rec, nil)
	rep := rec.Report()
	if rep.Entries <= 100 {
		t.Fatalf("run produced only %d entries; test needs ring overflow", rep.Entries)
	}
	kept := rec.Ledger()
	if len(kept) != 100 {
		t.Fatalf("ring kept %d entries, want 100", len(kept))
	}
	full := audit.NewLimited(audit.Limits{MaxEntries: 1 << 20})
	runAudited(t, full, nil)
	all := full.Ledger()
	if len(all) != rep.Entries {
		t.Fatalf("unbounded ring kept %d entries, bounded recorder observed %d", len(all), rep.Entries)
	}
	if d := audit.DiffLedgers(all[len(all)-100:], kept); d != nil {
		t.Fatalf("ring is not the ledger's tail: %v", d)
	}
	if rep.EntriesKept != 100 || rep.Entries != len(all) {
		t.Fatalf("report kept=%d total=%d, want 100/%d", rep.EntriesKept, rep.Entries, len(all))
	}
}

// TestTopSpenders orders by total consumption, ties to lower id.
func TestTopSpenders(t *testing.T) {
	rep := audit.Report{Nodes: []audit.NodeEnergy{
		{Node: 0, Total: 1}, {Node: 1, Total: 5}, {Node: 2, Total: 5}, {Node: 3, Total: 2},
	}}
	top := rep.TopSpenders(3)
	if len(top) != 3 || top[0].Node != 1 || top[1].Node != 2 || top[2].Node != 3 {
		t.Fatalf("top spenders %+v, want nodes 1,2,3", top)
	}
	if all := rep.TopSpenders(0); len(all) != 4 {
		t.Fatalf("TopSpenders(0) returned %d rows, want all 4", len(all))
	}
}

// TestRecorderPreservesResult: attaching the recorder installs a
// decision observer, which sends every Decide through the exhaustive
// scan instead of the screened argmax. At a head count where the screen
// skips most heads (N=300, k=30), the run's Result must still be
// byte-identical with and without the recorder.
func TestRecorderPreservesResult(t *testing.T) {
	run := func(rec *audit.Recorder) []byte {
		c := experiment.PaperConfig()
		c.N = 300
		c.K = 30
		c.Seeds = []uint64{3}
		res, err := c.RunOneWith(context.Background(), experiment.QLEC, 4, 3, false, experiment.Hooks{Audit: rec})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	rec := audit.New(audit.Options{})
	plain, audited := run(nil), run(rec)
	if rec.Report().Decisions == 0 {
		t.Fatal("the recorder observed no decisions")
	}
	if !bytes.Equal(plain, audited) {
		t.Fatalf("Result differs with the recorder attached:\nwithout %s\nwith    %s", plain, audited)
	}
}
