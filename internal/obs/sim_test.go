package obs

import (
	"strings"
	"testing"

	"qlec/internal/metrics"
	"qlec/internal/sim"
)

func TestSimCollectorObserve(t *testing.T) {
	r := NewRegistry()
	c := NewSimCollector(r, "QLEC", 500, 5)

	snap := sim.RoundSnapshot{
		Round:       3,
		Alive:       97,
		EnergySoFar: 120,
		Stats: metrics.RoundStats{
			Heads:     4,
			Generated: 50,
			Delivered: 45,
		},
		MeanQ: 0.42,
		HasQ:  true,
	}
	snap.Stats.Dropped[metrics.DropLink] = 3
	snap.Stats.Dropped[metrics.DropQueue] = 2
	c.Observe(snap)
	snap.Round, snap.EnergySoFar = 4, 150
	c.Observe(snap)

	if got := c.round.Value(); got != 4 {
		t.Errorf("round = %v, want 4", got)
	}
	if got := c.residual.Value(); got != 350 {
		t.Errorf("residual = %v, want 350 (500 initial - 150 consumed)", got)
	}
	if got := c.alive.Value(); got != 97 {
		t.Errorf("alive = %v, want 97", got)
	}
	if got := c.kTarget.Value(); got != 5 {
		t.Errorf("kTarget = %v, want 5", got)
	}
	if got := c.generated.Value(); got != 100 {
		t.Errorf("generated = %v, want 100 (counter accumulates per-round)", got)
	}
	if got := c.delivered.Value(); got != 90 {
		t.Errorf("delivered = %v, want 90", got)
	}
	if got := c.dropped[metrics.DropLink].Value(); got != 6 {
		t.Errorf("dropped{link} = %v, want 6", got)
	}
	if got := c.meanQ.Value(); got != 0.42 {
		t.Errorf("meanQ = %v, want 0.42", got)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`qlec_sim_round{protocol="QLEC"} 4`,
		`qlec_sim_alive_nodes{protocol="QLEC"} 97`,
		`qlec_sim_packets_dropped_total{protocol="QLEC",reason="link"} 6`,
		`qlec_sim_mean_q_value{protocol="QLEC"} 0.42`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := LintExposition(strings.NewReader(out)); err != nil {
		t.Errorf("sim exposition fails lint: %v", err)
	}
}

// TestSimCollectorSkipsQWhenAbsent: DEEC ablations report HasQ=false
// and must not disturb the Q gauges.
func TestSimCollectorSkipsQWhenAbsent(t *testing.T) {
	r := NewRegistry()
	c := NewSimCollector(r, "DEEC-nearest", 500, 5)
	c.meanQ.Set(99) // sentinel: must survive a HasQ=false observation
	c.Observe(sim.RoundSnapshot{Round: 1, HasQ: false})
	if got := c.meanQ.Value(); got != 99 {
		t.Errorf("meanQ = %v; HasQ=false observation overwrote it", got)
	}
}
