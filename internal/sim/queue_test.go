package sim

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"qlec/internal/rng"
)

// queueDelays are the delay classes checkQueueOps pushes into: delay 0,
// values whose sums with the clock round, and two push sites sharing
// one delay (as ServiceTime and BSServiceTime may).
var queueDelays = []float64{0, 0.016, 0.008, 0.02, 0.05, 0.1, 0.1}

// checkQueueOps drives an eventQueue the way drain does and checks
// every pop against a reference sort on (t, seq). Each byte is one op:
//
//	0..159    push into queueDelays[b%7] at the current clock
//	160..239  pop the earliest event and move the clock to it
//	240..254  advance the clock by (b-239) ms, but not past the
//	          earliest pending event (a generation event in drain)
//	255       Reset
//
// The clock never decreases, as in drain. It starts below zero so that
// event times cross the sign change of the queue's integer time keys.
func checkQueueOps(t testing.TB, ops []byte) {
	t.Helper()
	var q eventQueue
	var ref []event // pending events in push order
	now := -0.25
	seq := uint64(0)
	var last *event    // the event Pop last returned, valid until the next Pop
	var lastWant event // what it must still read
	refMin := func() int {
		m := 0
		for i := range ref {
			if ref[i].t < ref[m].t || ref[i].t == ref[m].t && ref[i].seq < ref[m].seq {
				m = i
			}
		}
		return m
	}
	pop := func(op int) {
		ev := q.Pop()
		if len(ref) == 0 {
			if ev != nil {
				t.Fatalf("op %d: pop from empty queue returned t=%v seq=%d", op, ev.t, ev.seq)
			}
			return
		}
		m := refMin()
		want := ref[m]
		ref = append(ref[:m], ref[m+1:]...)
		if ev == nil {
			t.Fatalf("op %d: pop returned nil, want (t=%v seq=%d)", op, want.t, want.seq)
		}
		if ev.t != want.t || ev.seq != want.seq || ev.node != want.node {
			t.Fatalf("op %d: popped (t=%v seq=%d node=%d), want (t=%v seq=%d node=%d)",
				op, ev.t, ev.seq, ev.node, want.t, want.seq, want.node)
		}
		now = ev.t
		last, lastWant = ev, want
	}
	for i, b := range ops {
		if pt, ok := q.PeekT(); ok != (len(ref) > 0) || ok && pt != ref[refMin()].t {
			t.Fatalf("op %d: PeekT = (%v, %v), reference has %d pending", i, pt, ok, len(ref))
		}
		switch {
		case b < 160:
			d := queueDelays[int(b)%len(queueDelays)]
			ev := q.Push(now, d, seq)
			ev.node = int(b)
			ref = append(ref, event{t: now + d, seq: seq, node: int(b)})
			seq++
			if last != nil && *last != lastWant {
				t.Fatalf("op %d: push overwrote the last popped event: %+v, want %+v", i, *last, lastWant)
			}
		case b < 240:
			pop(i)
		case b < 255:
			next := now + float64(b-239)*1e-3
			if len(ref) > 0 {
				next = math.Min(next, ref[refMin()].t)
			}
			now = next
		default:
			q.Reset()
			ref = ref[:0]
			last = nil
		}
	}
	for len(ref) > 0 {
		pop(len(ops))
	}
	pop(len(ops)) // the emptied queue must report empty
}

// TestEventQueueMatchesSort checks the delay-class queue against the
// reference sort on random drain-like op sequences, and on one built so
// that a class stays non-empty while its ring wraps and then grows.
func TestEventQueueMatchesSort(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 200; trial++ {
		ops := make([]byte, 1+r.Intn(2000))
		for i := range ops {
			ops[i] = byte(r.Intn(256))
		}
		checkQueueOps(t, ops)
	}

	const push01, popOp = 5, 200 // queueDelays[5] = 0.1
	var ops []byte
	ops = append(ops, bytes.Repeat([]byte{push01}, 40)...)
	ops = append(ops, bytes.Repeat([]byte{popOp}, 30)...)   // head at 30, 10 pending
	ops = append(ops, bytes.Repeat([]byte{push01}, 100)...) // wraps, then grows at 63 pending
	for i := 0; i < 300; i++ {
		ops = append(ops, push01, popOp, byte(i%5), popOp)
	}
	checkQueueOps(t, ops)
}

// FuzzEventQueue runs checkQueueOps on fuzzed op sequences; the seed
// corpus lives under testdata/fuzz/FuzzEventQueue.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 5, 6, 160, 3, 240, 1, 200, 255, 4, 2, 239})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		checkQueueOps(t, ops)
	})
}

// TestEventQueuePushBehindTailPanics pins the queue's one precondition:
// within a delay class, pushes come in nondecreasing time. A violation
// is a scheduling bug and must not be silently reordered.
func TestEventQueuePushBehindTailPanics(t *testing.T) {
	var q eventQueue
	q.Push(10, 0.5, 0)
	q.Push(9, 0.25, 1) // another class: fine
	defer func() {
		if recover() == nil {
			t.Fatal("push behind its class's tail did not panic")
		}
	}()
	q.Push(9, 0.5, 2)
}

// TestBucketSortGenMatchesGenericSort cross-checks the bucketed schedule
// sort against slices.SortFunc on (t, node) over sizes around the
// bucket arithmetic's edges and adversarial time shapes. One lane sorts
// every case, so its reused scratch buffers are exercised too. Equal
// (t, node) keys are interchangeable, so slice equality is the oracle.
func TestBucketSortGenMatchesGenericSort(t *testing.T) {
	cmp := func(a, b genPoint) int {
		switch {
		case genLess(a, b):
			return -1
		case genLess(b, a):
			return 1
		}
		return 0
	}
	const lo, hi = 40.0, 60.0
	shapes := []struct {
		name   string
		lo, hi float64
		time   func(r *rng.Stream, i int) float64
	}{
		{"uniform", lo, hi, func(r *rng.Stream, i int) float64 { return lo + r.Float64()*(hi-lo) }},
		{"ties across nodes", lo, hi, func(r *rng.Stream, i int) float64 { return lo + float64(r.Intn(4)) }},
		{"range ends", lo, hi, func(r *rng.Stream, i int) float64 {
			if i%2 == 0 {
				return lo
			}
			return math.Nextafter(hi, lo)
		}},
		{"one bucket", lo, hi, func(r *rng.Stream, i int) float64 { return lo + r.Float64()*1e-6 }},
		{"hi == lo", lo, lo, func(r *rng.Stream, i int) float64 { return lo }},
	}
	r := rng.New(99)
	var l lane
	for _, sh := range shapes {
		for _, n := range []int{0, 1, 2, 31, 32, 1000, 5000} {
			pts := make([]genPoint, n)
			for i := range pts {
				pts[i] = genPoint{t: sh.time(r, i), node: int32(r.Intn(100))}
			}
			want := slices.Clone(pts)
			slices.SortFunc(want, cmp)
			l.genSched = append(l.genSched[:0], pts...)
			l.bucketSortGen(sh.lo, sh.hi)
			if !slices.Equal(l.genSched, want) {
				t.Fatalf("%s, n=%d: bucketed sort diverged from slices.SortFunc", sh.name, n)
			}
		}
	}
}

// The TestHeap* checks below are the binary event heap's unit tests,
// kept under their names and run against the delay-class queue that
// replaced it. Pushes respect the queue's contract, as drain's do:
// seq rises from push to push, and no push lands behind its class's
// tail.

func TestHeapOrdersByTime(t *testing.T) {
	var q eventQueue
	for i, d := range []float64{5, 1, 3, 2, 4} {
		q.Push(0, d, uint64(i))
	}
	prev := -1.0
	for n := 0; ; n++ {
		ev := q.Pop()
		if ev == nil {
			if n != 5 {
				t.Fatalf("popped %d events, want 5", n)
			}
			break
		}
		if ev.t < prev {
			t.Fatalf("queue out of order: %v after %v", ev.t, prev)
		}
		prev = ev.t
	}
}

func TestHeapTieBreaksBySeq(t *testing.T) {
	// Open classes for delays 1..10, then push ten events at t = 20
	// with rising seq into those classes in reverse class order, then
	// ten more at t = 30 into one class: each time tie must pop in
	// rising seq order, not in class order.
	var q eventQueue
	for i := 0; i < 10; i++ {
		q.Push(0, float64(1+i), uint64(i))
	}
	for i := 0; i < 10; i++ {
		if ev := q.Pop(); ev == nil || ev.seq != uint64(i) {
			t.Fatalf("opening pop %d out of order", i)
		}
	}
	for i := 0; i < 10; i++ {
		q.Push(float64(10+i), float64(10-i), uint64(10+i))
	}
	for i := 0; i < 10; i++ {
		q.Push(20, 10, uint64(20+i))
	}
	var prev uint64
	for i := 0; i < 20; i++ {
		ev := q.Pop()
		if ev == nil {
			t.Fatal("queue emptied early")
		}
		if want := 20.0 + 10*float64(i/10); ev.t != want {
			t.Fatalf("pop %d at t=%v, want %v", i, ev.t, want)
		}
		if i > 0 && ev.seq <= prev {
			t.Fatalf("seq tie-break wrong: %d after %d", ev.seq, prev)
		}
		prev = ev.seq
	}
}

func TestHeapPopEmpty(t *testing.T) {
	var q eventQueue
	if ev := q.Pop(); ev != nil {
		t.Fatal("pop from empty queue succeeded")
	}
	if _, ok := q.PeekT(); ok {
		t.Fatal("peek at empty queue succeeded")
	}
}

func TestHeapPeek(t *testing.T) {
	var q eventQueue
	q.Push(0, 2, 0)
	q.Push(0, 1, 1)
	tm, ok := q.PeekT()
	if !ok || tm != 1 {
		t.Fatalf("peek = (%v, %v)", tm, ok)
	}
	if q.n != 2 {
		t.Fatal("peek consumed an event")
	}
	if ev := q.Pop(); ev == nil || ev.t != 1 || ev.seq != 1 {
		t.Fatal("pop after peek did not return the peeked event")
	}
}

func TestHeapRandomizedAgainstSort(t *testing.T) {
	r := rng.New(42)
	var q eventQueue
	const n = 2000
	for i := 0; i < n; i++ {
		q.Push(0, float64(r.Intn(100)), uint64(i))
	}
	if q.n != n {
		t.Fatalf("len = %d", q.n)
	}
	prevT, prevSeq := -1.0, uint64(0)
	for i := 0; i < n; i++ {
		ev := q.Pop()
		if ev == nil {
			t.Fatal("queue emptied early")
		}
		if ev.t < prevT || (ev.t == prevT && ev.seq < prevSeq) {
			t.Fatalf("ordering violated at %d", i)
		}
		prevT, prevSeq = ev.t, ev.seq
	}
	if q.Pop() != nil {
		t.Fatal("queue holds more events than were pushed")
	}
}

func TestHeapReset(t *testing.T) {
	var q eventQueue
	q.Push(0, 1, 0)
	q.Push(0, 2, 1)
	q.Reset()
	if q.n != 0 {
		t.Fatal("reset did not empty queue")
	}
	if _, ok := q.PeekT(); ok {
		t.Fatal("peek after reset succeeded")
	}
	if q.Pop() != nil {
		t.Fatal("pop after reset succeeded")
	}
	q.Push(5, 1, 2) // a reset queue accepts events behind its old tails
	if ev := q.Pop(); ev == nil || ev.t != 6 {
		t.Fatal("queue unusable after reset")
	}
}
