package cluster

import (
	"math"
	"testing"

	"qlec/internal/energy"
	"qlec/internal/geom"
	"qlec/internal/network"
	"qlec/internal/rng"
)

func testNet(t *testing.T, n int, seed uint64) *network.Network {
	t.Helper()
	w, err := network.Deploy(network.Deployment{N: n, Side: 200, InitialEnergy: 5}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestAssignNearest(t *testing.T) {
	w := testNet(t, 100, 1)
	heads := []int{3, 40, 77}
	a := AssignNearest(w, heads)
	if len(a.Head) != 100 {
		t.Fatalf("assignment length %d", len(a.Head))
	}
	headSet := map[int]bool{3: true, 40: true, 77: true}
	for i, h := range a.Head {
		if headSet[i] {
			if h != i {
				t.Fatalf("head %d assigned to %d, want itself", i, h)
			}
			continue
		}
		if !headSet[h] {
			t.Fatalf("node %d assigned to non-head %d", i, h)
		}
		// Verify nearest: no other head is strictly closer.
		d := w.Nodes[i].Pos.Dist(w.Nodes[h].Pos)
		for hh := range headSet {
			if w.Nodes[i].Pos.Dist(w.Nodes[hh].Pos) < d-1e-9 {
				t.Fatalf("node %d assigned to %d but %d is closer", i, h, hh)
			}
		}
	}
}

func TestAssignNearestNoHeads(t *testing.T) {
	w := testNet(t, 10, 2)
	a := AssignNearest(w, nil)
	for i, h := range a.Head {
		if h != network.BSID {
			t.Fatalf("node %d assigned to %d with no heads", i, h)
		}
	}
}

func TestMembersAndSizes(t *testing.T) {
	w := testNet(t, 50, 3)
	heads := []int{0, 25}
	a := AssignNearest(w, heads)
	sizes := a.Sizes()
	total := 0
	for _, h := range heads {
		if a.Head[h] != h {
			t.Fatalf("head %d assigned to %d, want itself", h, a.Head[h])
		}
		members := 0
		for _, g := range a.Head {
			if g == h {
				members++
			}
		}
		if sizes[h] != members {
			t.Fatalf("size of %d = %d, nodes assigned to it = %d", h, sizes[h], members)
		}
		total += sizes[h]
	}
	if total != 50 {
		t.Fatalf("cluster sizes sum to %d, want 50", total)
	}
}

func TestMeanSqDistToHeadShrinksWithMoreHeads(t *testing.T) {
	w := testNet(t, 400, 4)
	few := AssignNearest(w, []int{0, 1})
	many := AssignNearest(w, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	if MeanSqDistToHead(w, many) >= MeanSqDistToHead(w, few) {
		t.Fatalf("more heads did not reduce mean squared distance: %v vs %v",
			MeanSqDistToHead(w, many), MeanSqDistToHead(w, few))
	}
}

// With k well-spread heads, the empirical mean squared member→head
// distance should be on the order of Lemma 1's prediction.
func TestMeanSqDistTracksLemma1(t *testing.T) {
	w := testNet(t, 2000, 5)
	// Pick heads on a rough lattice by taking nodes nearest to 8 cell
	// centers of a 2x2x2 partition.
	var heads []int
	for _, cx := range []float64{50, 150} {
		for _, cy := range []float64{50, 150} {
			for _, cz := range []float64{50, 150} {
				target := geom.Vec3{X: cx, Y: cy, Z: cz}
				best, bestD := -1, math.Inf(1)
				for _, n := range w.Nodes {
					if d := n.Pos.Dist(target); d < bestD {
						best, bestD = n.ID, d
					}
				}
				heads = append(heads, best)
			}
		}
	}
	a := AssignNearest(w, heads)
	got := MeanSqDistToHead(w, a)
	want := energy.ExpectedSqDistToCH(200, float64(len(heads)))
	// Lattice heads with cube-shaped (not spherical) cells: expect
	// agreement within a factor ~1.5.
	if got < want/2 || got > want*2 {
		t.Fatalf("empirical E[d²]=%v, Lemma 1 predicts %v", got, want)
	}
}

func TestValidateHeads(t *testing.T) {
	w := testNet(t, 10, 6)
	if err := ValidateHeads(w, []int{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	if err := ValidateHeads(w, []int{1, 1}, 0); err == nil {
		t.Fatal("duplicate head accepted")
	}
	if err := ValidateHeads(w, []int{-2}, 0); err == nil {
		t.Fatal("negative head accepted")
	}
	if err := ValidateHeads(w, []int{10}, 0); err == nil {
		t.Fatal("out-of-range head accepted")
	}
	w.Nodes[4].Battery.Draw(5)
	if err := ValidateHeads(w, []int{4}, 0); err == nil {
		t.Fatal("dead head accepted")
	}
}

func TestSortedCopy(t *testing.T) {
	in := []int{5, 1, 3}
	out := SortedCopy(in)
	if out[0] != 1 || out[1] != 3 || out[2] != 5 {
		t.Fatalf("SortedCopy = %v", out)
	}
	if in[0] != 5 {
		t.Fatal("SortedCopy mutated input")
	}
}

func TestRelayModeString(t *testing.T) {
	if HoldAndBurst.String() != "hold-and-burst" {
		t.Fatal(HoldAndBurst.String())
	}
	if ForwardPerPacket.String() != "forward-per-packet" {
		t.Fatal(ForwardPerPacket.String())
	}
	if RelayMode(9).String() == "" {
		t.Fatal("unknown mode empty")
	}
}

func TestMeanSqDistPanicsOnMismatch(t *testing.T) {
	w := testNet(t, 5, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	MeanSqDistToHead(w, Assignment{Head: []int{0}})
}
