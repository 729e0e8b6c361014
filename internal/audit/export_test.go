package audit

import (
	"qlec/internal/network"
	"qlec/internal/sim"
)

// Limits overrides a Recorder's bounds for tests; a zero field keeps
// the package constant.
type Limits struct {
	MaxEntries       int
	LoopTxThreshold  int
	StarvationRounds int
	QAbsThreshold    float64
}

// NewLimited is New(Options{}) with l's bounds.
func NewLimited(l Limits) *Recorder {
	r := New(Options{})
	if l.MaxEntries > 0 {
		r.entries = newRing[sim.EnergyEntry](l.MaxEntries)
	}
	if l.LoopTxThreshold > 0 {
		r.loopTx = l.LoopTxThreshold
	}
	if l.StarvationRounds > 0 {
		r.starvation = l.StarvationRounds
	}
	if l.QAbsThreshold > 0 {
		r.qAbs = l.QAbsThreshold
	}
	return r
}

// Network returns the network the recorder is bound to (nil before
// Bind).
func (r *Recorder) Network() *network.Network { return r.net }
