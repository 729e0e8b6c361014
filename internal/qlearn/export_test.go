package qlearn

import "qlec/internal/network"

// QValue evaluates Eq. (15)+(16) for one state-action pair without
// changing any estimate or value. target may be network.BSID.
func (l *Learner) QValue(from, target int) float64 {
	a := action{y: l.y(from, target), p: l.LinkP(from, target)}
	if target == network.BSID {
		return l.qAction(a, l.x(from), l.v[from], 1, l.vBS, l.params.L)
	}
	return l.qAction(a, l.x(from), l.v[from], l.x(target), l.v[target], 0)
}

// V returns the current V*(id); V of the base station is 0 (terminal).
func (l *Learner) V(id int) float64 {
	if id == network.BSID {
		return l.vBS
	}
	return l.v[id]
}
