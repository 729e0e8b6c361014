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
	if q.Dropped() != 1 || q.Pushed() != 3 {
		t.Fatalf("dropped=%d pushed=%d", q.Dropped(), q.Pushed())
	}
	// The dropped packet must not displace queued ones.
	p, _ := q.Pop()
	if p.ID != 1 {
		t.Fatalf("head after drop = %v", p.ID)
	}
}

func TestZeroCapacityDropsAll(t *testing.T) {
	q := NewQueue(0)
	if q.Push(Packet{ID: 1}) {
		t.Fatal("zero-capacity queue accepted a packet")
	}
	if q.Dropped() != 1 {
		t.Fatalf("dropped = %d", q.Dropped())
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
	if q.Len() != 0 || q.Dropped() != 0 || q.Pushed() != 0 {
		t.Fatal("reset did not clear state")
	}
	if !q.Push(Packet{ID: 3}) {
		t.Fatal("push after reset rejected")
	}
}

func TestFreeAndLenTrack(t *testing.T) {
	q := NewQueue(4)
	if q.Free() != 4 || q.Len() != 0 {
		t.Fatal("fresh queue accounting wrong")
	}
	q.Push(Packet{})
	q.Push(Packet{})
	if q.Free() != 2 || q.Len() != 2 {
		t.Fatalf("free=%d len=%d", q.Free(), q.Len())
	}
	q.Pop()
	if q.Free() != 3 || q.Len() != 1 {
		t.Fatalf("after pop: free=%d len=%d", q.Free(), q.Len())
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

// Property: pushed == dropped + still-queued + popped, and Len never
// exceeds Cap, under arbitrary push/pop interleavings.
func TestQueueAccountingQuick(t *testing.T) {
	g := func(capacity uint8, ops []bool) bool {
		q := NewQueue(int(capacity % 16))
		inQueue := 0
		popped := 0
		for i, push := range ops {
			if push {
				if q.Push(Packet{ID: ID(i)}) {
					inQueue++
				}
			} else if _, ok := q.Pop(); ok {
				inQueue--
				popped++
			}
			if q.Len() > q.Cap() || q.Len() != inQueue {
				return false
			}
		}
		return q.Pushed() == q.Dropped()+inQueue+popped
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
