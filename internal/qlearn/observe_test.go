package qlearn

import (
	"math"
	"testing"

	"qlec/internal/network"
)

// TestDecisionObserverCapture: a Decide under observation must report
// the exact candidate set (BS first, probe order), Q-values matching
// QValue recomputation, the greedy argmax, and the V refresh.
func TestDecisionObserverCapture(t *testing.T) {
	w := testNet(t, 12, 3)
	l := newTestLearner(t, w)
	heads := []int{2, 5, 7}

	var got []Decision
	l.SetDecisionObserver(func(d Decision) { got = append(got, d) })
	chosen := l.Decide(0, heads)
	if len(got) != 1 {
		t.Fatalf("observer fired %d times, want 1", len(got))
	}
	d := got[0]
	if d.Node != 0 || d.Chosen != chosen {
		t.Fatalf("decision %+v inconsistent with Decide() = %d", d, chosen)
	}
	wantCands := []int{network.BSID, 2, 5, 7}
	if len(d.Candidates) != len(wantCands) || len(d.QValues) != len(wantCands) {
		t.Fatalf("candidates %v / %d q-values, want %v", d.Candidates, len(d.QValues), wantCands)
	}
	bestQ := math.Inf(-1)
	for i, c := range d.Candidates {
		if c != wantCands[i] {
			t.Fatalf("candidate[%d] = %d, want %d", i, c, wantCands[i])
		}
		if d.QValues[i] > bestQ {
			bestQ = d.QValues[i]
		}
	}
	if d.VAfter != bestQ || l.V(0) != bestQ {
		t.Fatalf("VAfter = %v, max Q = %v, V(0) = %v; all must agree", d.VAfter, bestQ, l.V(0))
	}

	// Detaching stops capture.
	l.SetDecisionObserver(nil)
	l.Decide(0, heads)
	if len(got) != 1 {
		t.Fatal("observer fired after detach")
	}
}

// TestDecisionObserverPreservesDecisions: installing the observer must
// not perturb decisions or V updates — observed and unobserved learners given identical histories must make
// byte-identical choices. That holds unarmed, and armed, where the
// observer also switches Decide from the screened argmax to the
// exhaustive scan; epochs re-arm every 50 steps, and head values
// update mid-epoch.
func TestDecisionObserverPreservesDecisions(t *testing.T) {
	run := func(observe, arm bool) ([]int, []float64) {
		w := testNet(t, 20, 11)
		l := newTestLearner(t, w)
		if observe {
			l.SetDecisionObserver(func(Decision) {})
			l.SetOutcomeObserver(func(Outcome) {})
		}
		heads := []int{1, 2, 3}
		var picks []int
		var vs []float64
		for i := 0; i < 200; i++ {
			if arm && i%50 == 0 {
				l.BeginEpoch(heads, 0)
			}
			if i%30 == 29 {
				l.UpdateHeadValue(heads[i%len(heads)])
			}
			from := 4 + i%10
			to := l.Decide(from, heads)
			l.Observe(from, to, i%3 != 0)
			picks = append(picks, to)
			vs = append(vs, l.V(from))
		}
		return picks, vs
	}
	basePicks, baseVs := run(false, false)
	for _, c := range []struct{ observe, arm bool }{{true, false}, {false, true}, {true, true}} {
		picks, vs := run(c.observe, c.arm)
		for i := range basePicks {
			if basePicks[i] != picks[i] || math.Float64bits(baseVs[i]) != math.Float64bits(vs[i]) {
				t.Fatalf("observed=%v armed=%v, step %d: (%d, %v) != unobserved unarmed (%d, %v)",
					c.observe, c.arm, i, picks[i], vs[i], basePicks[i], baseVs[i])
			}
		}
	}
}

// TestOutcomeObserverReward: the outcome must carry the post-update
// link estimate and the realized reward for the observed (from, to)
// pair, matching the Eq. (17)/(20) forms.
func TestOutcomeObserverReward(t *testing.T) {
	w := testNet(t, 12, 9)
	l := newTestLearner(t, w)
	var outs []Outcome
	l.SetOutcomeObserver(func(o Outcome) { outs = append(outs, o) })

	l.Observe(3, 7, true)
	l.Observe(3, 7, false)
	if len(outs) != 2 {
		t.Fatalf("observer fired %d times, want 2", len(outs))
	}
	if !outs[0].Success || outs[1].Success {
		t.Fatalf("success flags %v/%v, want true/false", outs[0].Success, outs[1].Success)
	}
	for i, o := range outs {
		if o.From != 3 || o.To != 7 {
			t.Fatalf("outcome %d endpoints (%d,%d), want (3,7)", i, o.From, o.To)
		}
		if o.LinkP != l.LinkP(3, 7) && i == 1 {
			t.Fatalf("final LinkP %v, estimator says %v", o.LinkP, l.LinkP(3, 7))
		}
	}
	if wantS := l.rewardSuccess(3, 7); outs[0].Reward != wantS {
		t.Fatalf("success reward %v, want Eq.(17) %v", outs[0].Reward, wantS)
	}
	if wantF := l.rewardFailure(3, 7); outs[1].Reward != wantF {
		t.Fatalf("failure reward %v, want Eq.(20) %v", outs[1].Reward, wantF)
	}
}
