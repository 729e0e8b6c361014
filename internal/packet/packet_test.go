package packet

import (
	"testing"
	"testing/quick"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(3)
	for i := 0; i < 3; i++ {
		if !q.Push(Packet{ID: ID(i)}) {
			t.Fatalf("push %d rejected with free space", i)
		}
	}
	for i := 0; i < 3; i++ {
		p, ok := q.Pop()
		if !ok || p.ID != ID(i) {
			t.Fatalf("pop %d = (%v, %v)", i, p.ID, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

func TestQueueDropsWhenFull(t *testing.T) {
	q := NewQueue(2)
	q.Push(Packet{ID: 1})
	q.Push(Packet{ID: 2})
	if q.Push(Packet{ID: 3}) {
		t.Fatal("push into full queue accepted")
	}
	if q.Len() != 2 {
		t.Fatalf("len after a rejected push = %d, want 2", q.Len())
	}
	// The dropped packet must not displace queued ones.
	p, _ := q.Pop()
	if p.ID != 1 {
		t.Fatalf("head after drop = %v", p.ID)
	}
}

func TestZeroCapacityDropsAll(t *testing.T) {
	q := NewQueue(0)
	for i := 0; i < 3; i++ {
		if q.Push(Packet{ID: ID(i)}) {
			t.Fatal("zero-capacity queue accepted a packet")
		}
	}
	if _, ok := q.Pop(); ok || q.Len() != 0 {
		t.Fatalf("zero-capacity queue holds %d packets", q.Len())
	}
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewQueue(-1) did not panic")
		}
	}()
	NewQueue(-1)
}

func TestReset(t *testing.T) {
	q := NewQueue(1)
	q.Push(Packet{ID: 1})
	q.Push(Packet{ID: 2}) // dropped
	q.Reset()
	if q.Len() != 0 {
		t.Fatal("reset did not clear state")
	}
	if !q.Push(Packet{ID: 3}) {
		t.Fatal("push after reset rejected")
	}
	if p, ok := q.Pop(); !ok || p.ID != 3 {
		t.Fatalf("pop after reset = (%v, %v), want packet 3", p.ID, ok)
	}
}

// TestFreeAndLenTrack checks Len, and the free space as the number of
// further pushes the queue accepts before it rejects one.
func TestFreeAndLenTrack(t *testing.T) {
	// free pushes until the queue rejects one, pops those back off and
	// returns how many it took.
	free := func(q *Queue) int {
		n := 0
		for q.Push(Packet{}) {
			n++
		}
		for range n {
			q.Pop()
		}
		return n
	}
	q := NewQueue(4)
	if free(q) != 4 || q.Len() != 0 {
		t.Fatal("fresh queue accounting wrong")
	}
	q.Push(Packet{})
	q.Push(Packet{})
	if f := free(q); f != 2 || q.Len() != 2 {
		t.Fatalf("free=%d len=%d", f, q.Len())
	}
	q.Pop()
	if f := free(q); f != 3 || q.Len() != 1 {
		t.Fatalf("after pop: free=%d len=%d", f, q.Len())
	}
}

func TestLongChurnKeepsCapacityBound(t *testing.T) {
	// Push/pop churn far beyond capacity must neither leak memory
	// unboundedly nor corrupt FIFO ordering.
	q := NewQueue(8)
	next := ID(0)
	expect := ID(0)
	for i := 0; i < 100000; i++ {
		if q.Push(Packet{ID: next}) {
			next++
		}
		if i%2 == 1 {
			p, ok := q.Pop()
			if !ok {
				t.Fatal("pop failed with items queued")
			}
			if p.ID != expect {
				t.Fatalf("FIFO violated: got %d want %d", p.ID, expect)
			}
			expect++
		}
	}
}

// Property: under arbitrary push/pop interleavings, Len is the
// accepted pushes minus the pops that returned a packet and never
// exceeds the capacity, and a push is rejected exactly when the queue
// is full.
func TestQueueAccountingQuick(t *testing.T) {
	g := func(capacity uint8, ops []bool) bool {
		c := int(capacity % 16)
		q := NewQueue(c)
		accepted, popped := 0, 0
		for i, push := range ops {
			if push {
				full := q.Len() == c
				if q.Push(Packet{ID: ID(i)}) == full {
					return false
				}
				if !full {
					accepted++
				}
			} else if _, ok := q.Pop(); ok {
				popped++
			}
			if q.Len() > c || q.Len() != accepted-popped {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkQueueChurn(b *testing.B) {
	q := NewQueue(64)
	for i := 0; i < b.N; i++ {
		q.Push(Packet{ID: ID(i)})
		if i%2 == 1 {
			q.Pop()
		}
	}
}
