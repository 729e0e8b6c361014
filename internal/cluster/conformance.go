package cluster

import (
	"fmt"

	"qlec/internal/energy"
	"qlec/internal/network"
)

// ConformanceReport lists contract violations found by CheckConformance.
// An empty Violations slice means the protocol honours the Protocol
// contract over the exercised rounds.
type ConformanceReport struct {
	Violations []string
}

// Ok reports whether no violations were found.
func (r *ConformanceReport) Ok() bool { return len(r.Violations) == 0 }

// CheckConformance drives a protocol through the given number of rounds
// against the network and checks the Protocol contract:
//
//   - StartRound returns in-range, duplicate-free, alive head ids;
//   - NextHop returns a head id, network.BSID, or (for heads under
//     ForwardPerPacket) another head making progress toward the BS
//     without cycles;
//   - NextHop never routes a member to a non-head node;
//   - EndRound does not panic.
//
// It feeds synthetic all-success outcomes through OnOutcome so learning
// protocols advance. The kit powers the cross-protocol conformance test
// and is exported for downstream Protocol implementations to reuse.
func CheckConformance(w *network.Network, p Protocol, rounds int, deathLine energy.Joules) *ConformanceReport {
	report := &ConformanceReport{}
	addf := func(format string, args ...any) {
		report.Violations = append(report.Violations, fmt.Sprintf(format, args...))
	}
	for r := 0; r < rounds; r++ {
		heads := p.StartRound(r)
		if err := ValidateHeads(w, heads, deathLine); err != nil {
			addf("round %d: %v", r, err)
			p.EndRound(r)
			continue
		}
		isHead := make(map[int]bool, len(heads))
		for _, h := range heads {
			isHead[h] = true
		}
		for id := 0; id < w.N(); id++ {
			if !w.Nodes[id].Alive(deathLine) {
				continue
			}
			hop := p.NextHop(id)
			switch {
			case hop == network.BSID:
				// Always legal.
			case hop == id:
				addf("round %d: node %d routes to itself", r, id)
			case hop < 0 || hop >= w.N():
				addf("round %d: node %d routes to out-of-range %d", r, id, hop)
			case !isHead[hop]:
				addf("round %d: node %d routes to non-head %d", r, id, hop)
			default:
				p.OnOutcome(id, hop, true)
			}
		}
		// Relay chains must reach the BS without cycles.
		if p.RelayMode() == ForwardPerPacket {
			for _, h := range heads {
				seen := map[int]bool{h: true}
				cur := h
				for hop := 0; hop < w.N()+1; hop++ {
					next := p.NextHop(cur)
					if next == network.BSID {
						cur = network.BSID
						break
					}
					if !isHead[next] {
						addf("round %d: relay %d forwards to non-head %d", r, cur, next)
						break
					}
					if seen[next] {
						addf("round %d: relay cycle through %d", r, next)
						break
					}
					seen[next] = true
					cur = next
				}
				if cur != network.BSID && report.Ok() {
					addf("round %d: head %d's relay chain never reaches the BS", r, h)
				}
			}
		}
		p.EndRound(r)
	}
	return report
}
