package qlec

import (
	"context"
	"testing"

	"qlec/internal/experiment"
)

// TestFig3aQLECAllocs pins allocations per run of the Fig3a QLEC cells
// that BenchmarkFig3aPacketDeliveryRate times (benchConfig, seed 1).
// Allocation counts are deterministic, so unlike ns/op they can be a
// plain test. The limits are the measured counts; lower them when a
// change allocates less, never raise them.
// TestGoldenMetricsTable2Defaults pins the same runs' delivered
// packets (so pdr) and energy exactly.
func TestFig3aQLECAllocs(t *testing.T) {
	cfg := benchConfig()
	for _, c := range []struct {
		lambda float64
		limit  float64
	}{{8, 503}, {2, 503}} {
		var err error
		got := testing.AllocsPerRun(10, func() {
			if _, e := cfg.RunOne(context.Background(), experiment.QLEC, c.lambda, 1, false); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("λ=%g: %.0f allocs/run", c.lambda, got)
		if got > c.limit {
			t.Errorf("λ=%g: %.0f allocs/run, want ≤ %.0f", c.lambda, got, c.limit)
		}
	}
}
