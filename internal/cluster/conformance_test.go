package cluster

import (
	"strings"
	"testing"

	"qlec/internal/network"
	"qlec/internal/rng"
)

// brokenProtocol misbehaves in a configurable way so the conformance kit
// itself can be tested.
type brokenProtocol struct {
	w    *network.Network
	mode string
}

func (p *brokenProtocol) Name() string { return "broken-" + p.mode }

func (p *brokenProtocol) StartRound(round int) []int {
	switch p.mode {
	case "duplicate-heads":
		return []int{1, 1}
	case "dead-head":
		return []int{0} // node 0 is drained by the test
	default:
		return []int{1, 2}
	}
}

func (p *brokenProtocol) NextHop(node int) int {
	switch p.mode {
	case "self-route":
		return node
	case "non-head":
		if node != 1 && node != 2 {
			return 5 // not a head
		}
		return network.BSID
	case "cycle":
		if node == 1 {
			return 2
		}
		if node == 2 {
			return 1
		}
		return 1
	default:
		if node == 1 || node == 2 {
			return network.BSID
		}
		return 1
	}
}

func (p *brokenProtocol) OnOutcome(node, target int, ok bool) {}
func (p *brokenProtocol) EndRound(round int)                  {}
func (p *brokenProtocol) RelayMode() RelayMode {
	if p.mode == "cycle" {
		return ForwardPerPacket
	}
	return HoldAndBurst
}

func conformanceNet(t *testing.T) *network.Network {
	t.Helper()
	w, err := network.Deploy(network.Deployment{N: 20, Side: 100, InitialEnergy: 5}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestCheckConformancePassesGoodProtocol(t *testing.T) {
	w := conformanceNet(t)
	report := CheckConformance(w, &brokenProtocol{w: w, mode: "good"}, 5, 0)
	if !report.Ok() {
		t.Fatalf("well-behaved protocol flagged: %v", report.Violations)
	}
}

func TestCheckConformanceCatchesViolations(t *testing.T) {
	cases := map[string]string{
		"duplicate-heads": "duplicate",
		"self-route":      "itself",
		"non-head":        "non-head",
		"cycle":           "cycle",
	}
	for mode, wantSubstr := range cases {
		w := conformanceNet(t)
		report := CheckConformance(w, &brokenProtocol{w: w, mode: mode}, 3, 0)
		if report.Ok() {
			t.Fatalf("%s: no violations found", mode)
		}
		found := false
		for _, v := range report.Violations {
			if strings.Contains(v, wantSubstr) {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: violations %v lack %q", mode, report.Violations, wantSubstr)
		}
	}
}

func TestCheckConformanceCatchesDeadHead(t *testing.T) {
	w := conformanceNet(t)
	w.Nodes[0].Battery.Draw(5)
	report := CheckConformance(w, &brokenProtocol{w: w, mode: "dead-head"}, 1, 0)
	if report.Ok() {
		t.Fatal("dead head not flagged")
	}
}
