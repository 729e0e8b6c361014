package sim

import (
	"math"
	"testing"

	"qlec/internal/core"
	"qlec/internal/energy"
	"qlec/internal/network"
)

// TestGeomMemoMatchesFresh holds the per-sender geometry memo and the
// arrival-carried channel probability to a fresh dist and
// LinkPMax·exp(−x²), bit for bit. QLEC picks a head per packet, so
// senders switch targets within a round and the memo misses and
// overwrites; mobility moves every node between rounds, so an entry
// that outlived its round would be stale. The test runs each round's
// handlers itself, in drain's (generation first on ties) merge order,
// so it can check every arrival as it is popped, and every memo entry
// stamped for the round after each handler and each head's end-of-round
// flush. A geom hit returns an entry and a miss writes one, so the
// entries hold every geom result.
func TestGeomMemoMatchesFresh(t *testing.T) {
	const rounds = 6
	w := paperNet(t, 60)
	qc := core.DefaultConfig(rounds)
	qc.K = 6
	proto, err := core.New(w, energy.DefaultModel(), qc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MeanInterArrival = 2
	cfg.MobilitySpeedMin, cfg.MobilitySpeedMax = 1, 5
	e, err := NewEngine(w, proto, energy.DefaultModel(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	bits := math.Float64bits
	fresh := func(from, target int) (uint64, uint64) {
		d := e.dist(from, target)
		x := d / cfg.LinkRef
		return bits(d), bits(cfg.LinkPMax * math.Exp(-x*x))
	}
	prev := make([]geomMemo, w.N())
	var switches, arrivals int
	checkMemo := func(r int) {
		t.Helper()
		for from, m := range e.geomMemo {
			if m.round != e.geomRound {
				continue
			}
			if d, p := fresh(from, int(m.target)); bits(m.d) != d || bits(m.p) != p {
				t.Fatalf("round %d: memo %d→%d holds (%v, %v), fresh (%v, %v)",
					r, from, m.target, m.d, m.p, math.Float64frombits(d), math.Float64frombits(p))
			}
			if o := prev[from]; o.round == m.round && o.target != m.target {
				switches++
			}
		}
		copy(prev, e.geomMemo)
	}

	l := &e.main
	for r := 0; r < rounds; r++ {
		roundStart := float64(r) * cfg.RoundDuration
		roundEnd := roundStart + cfg.RoundDuration
		e.now, e.curRound = roundStart, r
		heads := proto.StartRound(r)
		e.setupHeads(heads)
		for from, m := range e.geomMemo {
			if m.round == e.geomRound {
				t.Fatalf("round %d: memo entry of node %d is valid before any geom call", r, from)
			}
		}
		l.begin(roundStart, roundEnd)
		for {
			evT, evOK := l.events.PeekT()
			if l.genIdx < len(l.genSched) && (!evOK || l.genSched[l.genIdx].t <= evT) {
				g := l.genSched[l.genIdx]
				l.now = g.t
				l.genIdx++
				l.handleGenerate(int(g.node))
			} else if evOK {
				ev := l.events.Pop()
				l.now = ev.t
				switch ev.kind {
				case evArrive:
					if _, p := fresh(ev.node, ev.target); bits(ev.pBase) != p {
						t.Fatalf("round %d: arrival %d→%d carries p %v, fresh %v",
							r, ev.node, ev.target, ev.pBase, math.Float64frombits(p))
					}
					arrivals++
					l.handleArrive(ev)
				case evRetry:
					l.handleRetry(ev)
				case evService:
					l.handleService(ev)
				}
			} else {
				break
			}
			checkMemo(r)
		}
		for _, h := range heads {
			l.finishHead(h)
			checkMemo(r)
		}
		e.nextPkt = l.nextPkt
		proto.EndRound(r)
		e.moveNodes()
	}
	t.Logf("%d arrivals, %d in-round target switches", arrivals, switches)
	if arrivals == 0 || switches == 0 {
		t.Fatalf("%d arrivals and %d in-round target switches: the memo-miss path went unexercised", arrivals, switches)
	}
	if e.geomRound != rounds {
		t.Fatalf("round stamp %d after %d rounds", e.geomRound, rounds)
	}
}

// TestGeomMemoStampWraps pins the stamp's wrap-around: a bump past
// 2³²−1 clears every entry and restarts at 1, so a stamp from 2³² rounds
// ago cannot hit, and stamp 0 never serves a zeroed entry.
func TestGeomMemoStampWraps(t *testing.T) {
	w := paperNet(t, 61)
	e, err := NewEngine(w, &stubProtocol{net: w, heads: []int{10}}, energy.DefaultModel(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A zeroed entry reads target 0 at stamp 0, the engine's stamp too.
	if d, _ := e.main.geom(5, 0); d != e.dist(5, 0) {
		t.Fatalf("geom(5, 0) before setupHeads = %v, want %v", d, e.dist(5, 0))
	}
	e.geomRound = math.MaxUint32
	e.main.geom(3, network.BSID)
	e.setupHeads([]int{10})
	if e.geomRound != 1 {
		t.Fatalf("stamp after wrap = %d, want 1", e.geomRound)
	}
	for from, m := range e.geomMemo {
		if m != (geomMemo{}) {
			t.Fatalf("entry %d survived the wrap: %+v", from, m)
		}
	}
}
