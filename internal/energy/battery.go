package energy

import (
	"fmt"
	"math"
)

// Battery tracks the residual energy of one node. Draws below the
// remaining charge clamp to zero (the radio browns out mid-transmission);
// the consumer is responsible for treating a node at or below the death
// line as dead.
type Battery struct {
	initial  Joules
	residual Joules
	consumed Joules
}

// ValidCharge reports whether e can be a battery's initial charge:
// finite and above zero. NaN and +Inf are not.
func ValidCharge(e Joules) bool {
	return e > 0 && !math.IsInf(float64(e), 1)
}

// NewBattery returns a battery holding the given initial charge.
// It panics on a charge that is not finite and positive: a sensor with
// no battery is a configuration error, not a runtime condition.
func NewBattery(initial Joules) *Battery {
	if !ValidCharge(initial) {
		panic(fmt.Sprintf("energy: initial battery charge must be finite and positive, got %v", initial))
	}
	return &Battery{initial: initial, residual: initial}
}

// Initial returns the charge the battery started with.
func (b *Battery) Initial() Joules { return b.initial }

// Residual returns the remaining charge.
func (b *Battery) Residual() Joules { return b.residual }

// Consumed returns the total energy drawn so far.
func (b *Battery) Consumed() Joules { return b.consumed }

// ConsumptionRate returns consumed/initial in [0, 1] — the quantity
// plotted for every node in the paper's Figure 4.
func (b *Battery) ConsumptionRate() float64 {
	return float64(b.consumed) / float64(b.initial)
}

// Draw removes amount from the battery, clamping at empty. It returns the
// energy actually drawn. Draw of a non-positive amount is a no-op
// returning zero, so callers may pass computed costs without guarding.
func (b *Battery) Draw(amount Joules) Joules {
	if amount <= 0 {
		return 0
	}
	if amount > b.residual {
		amount = b.residual
	}
	b.residual -= amount
	b.consumed += amount
	return amount
}

// Depleted reports whether the battery is at or below the given death
// line (§5.1: "the network dies when there exists one sensor possessing
// less energy than a given energy death line").
func (b *Battery) Depleted(deathLine Joules) bool {
	return b.residual <= deathLine
}

// ApproxEqual reports whether two energy quantities agree to within
// floating-point accumulation error: |a−b| ≤ 1e-9·max(|a|,|b|) + 1e-12.
// Summing the same draws in a different association order (battery
// residual vs. an external ledger) legitimately differs by a few ULPs;
// this is the shared tolerance for conservation checks, the same form
// metrics.Result.Validate uses for per-round energy sums.
func ApproxEqual(a, b Joules) bool {
	diff := float64(a - b)
	if diff < 0 {
		diff = -diff
	}
	scale := float64(a)
	if scale < 0 {
		scale = -scale
	}
	if s := float64(b); s > scale {
		scale = s
	} else if -s > scale {
		scale = -s
	}
	return diff <= 1e-9*scale+1e-12
}
