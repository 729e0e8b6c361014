package deec

import "qlec/internal/energy"

// ImprovedConfig returns the paper's full QLEC head-selection setup, as
// core.New builds it with no ablation switched on.
func ImprovedConfig(k, totalRounds int, deathLine energy.Joules) Config {
	return Config{
		K: k, TotalRounds: totalRounds, DeathLine: deathLine,
		EnergyFloor: true, ReduceRedundancy: true, TopUp: true,
	}
}
