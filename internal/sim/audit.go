package sim

import (
	"fmt"

	"qlec/internal/energy"
	"qlec/internal/packet"
)

// EnergyCause classifies a battery draw by radio activity, mirroring
// the categories of metrics.EnergyBreakdown.
type EnergyCause uint8

// Ledger entry causes, one per classified draw helper in the engine.
const (
	CauseTx EnergyCause = iota
	CauseRx
	CauseFusion
	CauseControl
	// NumEnergyCauses sizes per-cause accumulator arrays.
	NumEnergyCauses
)

var causeNames = [NumEnergyCauses]string{"tx", "rx", "fusion", "control"}

func (c EnergyCause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", int(c))
}

// ParseEnergyCause inverts String; it rejects unknown names.
func ParseEnergyCause(s string) (EnergyCause, error) {
	for i, n := range causeNames {
		if n == s {
			return EnergyCause(i), nil
		}
	}
	return 0, fmt.Errorf("sim: unknown energy cause %q", s)
}

// MarshalJSON writes the cause as its lowercase name so ledger files
// stay self-describing.
func (c EnergyCause) MarshalJSON() ([]byte, error) {
	if int(c) >= len(causeNames) {
		return nil, fmt.Errorf("sim: cannot marshal energy cause %d", int(c))
	}
	return []byte(`"` + causeNames[c] + `"`), nil
}

// UnmarshalJSON accepts the names emitted by MarshalJSON.
func (c *EnergyCause) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("sim: energy cause must be a JSON string, got %s", b)
	}
	parsed, err := ParseEnergyCause(string(b[1 : len(b)-1]))
	if err != nil {
		return err
	}
	*c = parsed
	return nil
}

// EnergyEntry is one line of the double-entry energy ledger: a single
// battery draw, stamped with when and why it happened. Joules is the
// amount actually drawn (after the battery clamps at empty), so a
// node's entries always sum to its consumed energy exactly as the
// battery saw it. HasPacket distinguishes draws attributable to one
// packet (a transmission attempt, a reception, a per-packet fusion)
// from aggregate draws (control broadcasts, end-of-round bursts);
// packet.ID 0 is a valid id, hence the explicit flag.
type EnergyEntry struct {
	Time      float64       `json:"t"`
	Round     int           `json:"round"`
	Node      int           `json:"node"`
	Cause     EnergyCause   `json:"cause"`
	Joules    energy.Joules `json:"j"`
	Packet    packet.ID     `json:"pkt,omitempty"`
	HasPacket bool          `json:"hasPkt,omitempty"`
}

// Auditor receives every classified battery draw plus round
// boundaries. Like Tracer it sits on the engine's hot path: a nil
// auditor (the default) costs one branch per draw, and implementations
// must be fast. Methods are called from the engine's goroutine only.
type Auditor interface {
	// AuditBeginRound fires after head selection, before any of the
	// round's draws. Heads is the engine's own slice; auditors must not
	// retain it past the call.
	AuditBeginRound(round int, heads []int)
	// AuditEnergy records one battery draw.
	AuditEnergy(EnergyEntry)
	// AuditEndRound fires after the round's last draw with the round's
	// consumption and the run's cumulative total as the engine accounts
	// them — the reference values for conservation checks.
	AuditEndRound(round int, roundEnergy, totalEnergy energy.Joules)
}

// SetAuditor installs a flight-recorder auditor. Call before Start/Run;
// passing nil disables auditing.
func (e *Engine) SetAuditor(a Auditor) { e.auditor = a }

// auditEnergy emits a ledger entry stamped with the engine clock (the
// round start — control-plane draws happen at the CH-selection barrier).
func (e *Engine) auditEnergy(cause EnergyCause, id int, drawn energy.Joules, pkt packet.ID, hasPkt bool) {
	e.auditEnergyAt(e.now, cause, id, drawn, pkt, hasPkt)
}

// auditEnergyAt emits a ledger entry at an explicit time — the lane's
// virtual clock for event-loop draws.
func (e *Engine) auditEnergyAt(t float64, cause EnergyCause, id int, drawn energy.Joules, pkt packet.ID, hasPkt bool) {
	e.auditor.AuditEnergy(EnergyEntry{
		Time: t, Round: e.curRound, Node: id, Cause: cause,
		Joules: drawn, Packet: pkt, HasPacket: hasPkt,
	})
}
