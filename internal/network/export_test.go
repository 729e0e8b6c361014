package network

import "qlec/internal/energy"

// TotalResidual returns the current summed residual energy.
func (w *Network) TotalResidual() energy.Joules {
	var total energy.Joules
	for _, n := range w.Nodes {
		total += n.Battery.Residual()
	}
	return total
}
