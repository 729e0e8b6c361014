package mobility

import (
	"math"
	"testing"

	"qlec/internal/geom"
	"qlec/internal/rng"
)

func newModel(t *testing.T, n int, speedMin, speedMax, pause float64, seed uint64) (*RandomWaypoint, []geom.Vec3) {
	t.Helper()
	box := geom.Cube(200)
	r := rng.New(seed)
	pos := box.SampleUniformN(r, n)
	m, err := NewRandomWaypoint(box, n, speedMin, speedMax, pause, r)
	if err != nil {
		t.Fatal(err)
	}
	return m, pos
}

func TestValidation(t *testing.T) {
	box := geom.Cube(100)
	r := rng.New(1)
	if _, err := NewRandomWaypoint(box, 0, 1, 2, 0, r); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewRandomWaypoint(box, 5, -1, 2, 0, r); err == nil {
		t.Fatal("negative speed accepted")
	}
	if _, err := NewRandomWaypoint(box, 5, 3, 2, 0, r); err == nil {
		t.Fatal("inverted speed range accepted")
	}
	if _, err := NewRandomWaypoint(box, 5, 1, 2, -1, r); err == nil {
		t.Fatal("negative pause accepted")
	}
	bad := geom.AABB{Min: geom.Vec3{X: 1}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	if _, err := NewRandomWaypoint(bad, 5, 1, 2, 0, r); err == nil {
		t.Fatal("degenerate box accepted")
	}
}

func TestMovementBoundedBySpeed(t *testing.T) {
	m, pos := newModel(t, 50, 1, 3, 0, 2)
	before := append([]geom.Vec3(nil), pos...)
	const dt = 10.0
	m.Advance(pos, dt)
	for i := range pos {
		if d := pos[i].Dist(before[i]); d > 3*dt+1e-9 {
			t.Fatalf("node %d moved %v m in %v s at max speed 3", i, d, dt)
		}
	}
}

func TestStaysInBox(t *testing.T) {
	m, pos := newModel(t, 50, 2, 8, 1, 3)
	box := geom.Cube(200)
	for step := 0; step < 100; step++ {
		m.Advance(pos, 20)
		for i, p := range pos {
			if !inBox(box, p) {
				t.Fatalf("node %d escaped the box: %v", i, p)
			}
		}
	}
}

func TestZeroSpeedIsStatic(t *testing.T) {
	m, pos := newModel(t, 10, 0, 0, 0, 4)
	before := append([]geom.Vec3(nil), pos...)
	m.Advance(pos, 100)
	for i := range pos {
		if pos[i] != before[i] {
			t.Fatalf("static node %d moved", i)
		}
	}
}

func TestZeroDtIsNoop(t *testing.T) {
	m, pos := newModel(t, 10, 1, 2, 0, 5)
	before := append([]geom.Vec3(nil), pos...)
	m.Advance(pos, 0)
	m.Advance(pos, -5)
	for i := range pos {
		if pos[i] != before[i] {
			t.Fatal("zero/negative dt moved nodes")
		}
	}
}

func TestDeterministic(t *testing.T) {
	m1, pos1 := newModel(t, 20, 1, 4, 2, 6)
	m2, pos2 := newModel(t, 20, 1, 4, 2, 6)
	for step := 0; step < 20; step++ {
		m1.Advance(pos1, 20)
		m2.Advance(pos2, 20)
	}
	for i := range pos1 {
		if pos1[i] != pos2[i] {
			t.Fatalf("node %d diverged across equal seeds", i)
		}
	}
}

func TestNodesActuallyMoveOverTime(t *testing.T) {
	m, pos := newModel(t, 30, 2, 5, 0, 7)
	before := append([]geom.Vec3(nil), pos...)
	for step := 0; step < 10; step++ {
		m.Advance(pos, 20)
	}
	moved := 0
	for i := range pos {
		if pos[i].Dist(before[i]) > 10 {
			moved++
		}
	}
	if moved < 25 {
		t.Fatalf("only %d/30 nodes moved meaningfully", moved)
	}
}

func TestPauseHoldsNodesAtWaypoints(t *testing.T) {
	// Very fast nodes with a pause much longer than a step: after the
	// first step every node sits at a waypoint mid-pause, so the next
	// step must not move anyone.
	m, pos := newModel(t, 20, 1000, 1000, 1e6, 8)
	m.Advance(pos, 10)
	at := append([]geom.Vec3(nil), pos...)
	m.Advance(pos, 10)
	for i := range pos {
		if pos[i] != at[i] {
			t.Fatalf("node %d moved during its pause", i)
		}
	}
}

func TestAdvancePanicsOnSizeMismatch(t *testing.T) {
	m, _ := newModel(t, 10, 1, 2, 0, 9)
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	m.Advance(make([]geom.Vec3, 3), 1)
}

// inBox reports whether p lies in b, faces included, give or take 1e-9.
func inBox(b geom.AABB, p geom.Vec3) bool {
	lo, hi := b.Min.Sub(p), p.Sub(b.Max)
	return math.Max(lo.X, math.Max(lo.Y, lo.Z)) <= 1e-9 && math.Max(hi.X, math.Max(hi.Y, hi.Z)) <= 1e-9
}
