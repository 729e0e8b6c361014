// Package packet models the data units and the bounded forwarding queues
// of the QLEC simulator.
//
// The paper's §4.2/§5.2 attribute packet loss to "poor communication
// environment or limited storage caches of cluster heads": a cluster head
// that receives member traffic faster than it can serialize it onto the
// radio drops the overflow. That queueing behaviour is what bends the
// packet-delivery-rate curves in Figure 3(a), so it is modelled explicitly
// here rather than folded into a loss constant.
package packet

import "fmt"

// ID uniquely identifies a packet within one simulation run.
type ID uint64

// Packet is one sensing report travelling from a source node toward the
// base station, possibly relayed through a cluster head.
type Packet struct {
	ID     ID
	Source int     // node index that generated the packet
	Bits   int     // payload size in bits
	Born   float64 // simulation time of generation (seconds)
	// Hops counts radio transmissions so far (member→CH = 1, CH→BS = 2;
	// the FCM baseline's multi-hop routing produces larger values).
	Hops int
}

// Queue is a bounded FIFO of packets, as held by a cluster head awaiting
// the end-of-round aggregation, or by a relay awaiting a send slot.
// A zero-capacity queue drops everything.
//
// Storage is a fixed-size ring allocated lazily on the first accepted
// push and retained across Reset, so a queue recycled round after round
// (the simulator pools head queues) performs no steady-state allocation.
type Queue struct {
	cap     int
	buf     []Packet // ring storage; len(buf) == cap once allocated
	head    int      // index of the oldest packet
	n       int      // number of queued packets
	dropped int
	pushed  int
}

// NewQueue returns a queue with the given capacity. It panics on negative
// capacity (a configuration error).
func NewQueue(capacity int) *Queue {
	if capacity < 0 {
		panic(fmt.Sprintf("packet: negative queue capacity %d", capacity))
	}
	return &Queue{cap: capacity}
}

// Cap returns the queue's capacity.
func (q *Queue) Cap() int { return q.cap }

// Len returns the number of queued packets.
func (q *Queue) Len() int { return q.n }

// Free returns the remaining space.
func (q *Queue) Free() int { return q.cap - q.n }

// Dropped returns how many packets were rejected for lack of space.
func (q *Queue) Dropped() int { return q.dropped }

// Pushed returns how many packets were offered (accepted + dropped).
func (q *Queue) Pushed() int { return q.pushed }

// Push offers a packet to the queue. It returns false — and counts a
// drop — when the queue is full.
func (q *Queue) Push(p Packet) bool {
	q.pushed++
	if q.n >= q.cap {
		q.dropped++
		return false
	}
	if q.buf == nil {
		q.buf = make([]Packet, q.cap)
	}
	i := q.head + q.n
	if i >= q.cap {
		i -= q.cap
	}
	q.buf[i] = p
	q.n++
	return true
}

// Pop removes and returns the oldest packet. ok is false when empty.
func (q *Queue) Pop() (p Packet, ok bool) {
	if q.n == 0 {
		return Packet{}, false
	}
	p = q.buf[q.head]
	q.head++
	if q.head >= q.cap {
		q.head = 0
	}
	q.n--
	return p, true
}

// Reset empties the queue and clears the drop/push counters, retaining
// the ring storage for reuse.
func (q *Queue) Reset() {
	q.head = 0
	q.n = 0
	q.dropped = 0
	q.pushed = 0
}
