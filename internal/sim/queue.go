package sim

import (
	"fmt"
	"math"
	"math/bits"

	"qlec/internal/packet"
)

// eventKind discriminates simulator events.
type eventKind int

const (
	// evGenerate: a node produces a new sensing packet.
	evGenerate eventKind = iota
	// evArrive: a transmission attempt resolves at its target.
	evArrive
	// evRetry: a member retransmits an unACKed packet.
	evRetry
	// evService: a head finishes fusing the packet at its queue's front.
	evService
)

// event is one entry on the simulation clock.
type event struct {
	t    float64
	seq  uint64 // tie-break so equal-time events order deterministically
	kind eventKind

	node    int     // generator / retrier / servicing head
	target  int     // transmission target (evArrive)
	attempt int     // transmission attempt number, 0-based
	pBase   float64 // base channel probability of the link (evArrive)
	pkt     packet.Packet
}

// eventQueue holds the pending radio and service events as one FIFO
// ring per distinct scheduling delay. Every event lands at now+d, where
// now never decreases while the lane drains and d is one of a handful
// of config constants (TxDelay of the raw and the compressed payload,
// RetryBackoff, ServiceTime, BSServiceTime). IEEE addition is monotone,
// so one class's events arrive already sorted by (t, seq): Push is an
// append, and the earliest pending event is the earliest class head.
// A push earlier than its class's tail would break that order; it can
// only come from a bug, so it panics. The zero value is an empty queue.
type eventQueue struct {
	classes []delayClass
	n       int // pending events across all classes
	min     int // class holding the earliest event; valid when n > 0
}

// delayClass is one delay's events in (t, seq) order, in a power-of-two
// ring that always keeps one slot free: the slot behind head holds the
// event Pop last returned from this ring, and a push never reuses it.
// The head event's (t, seq) is copied next to the delay so the scans
// over classes stay within this struct. key holds t's bits remapped so
// that unsigned order is float order, which lets Pop compare
// (key, seq) as one 128-bit number without branches: which class holds
// the next event is data-dependent, so a branchy compare mispredicts
// often. An empty class reads (MaxUint64, MaxUint64), after any real
// event.
type delayClass struct {
	d, t float64
	key  uint64
	seq  uint64
	buf  []event
	head int
	n    int
}

func (a *delayClass) setHead(t float64, seq uint64) {
	b := math.Float64bits(t)
	a.t, a.key, a.seq = t, b^(uint64(int64(b)>>63)|1<<63), seq
}

func (a *delayClass) clearHead() {
	a.t, a.key, a.seq = math.Inf(1), math.MaxUint64, math.MaxUint64
}

// minRing is a ring's first capacity; classes persist across rounds, so
// a run pays for each class's growth once.
const minRing = 16

// Push appends an event at now+d with the given tie-break seq and
// returns its slot, built in place: the caller fills the remaining
// fields before touching the queue again. seq must exceed every seq
// pushed before it, as drain's counter does, so a time tie between a
// new event and a pending one goes to the pending one.
func (q *eventQueue) Push(now, d float64, seq uint64) *event {
	c := q.class(d)
	r := &q.classes[c]
	t := now + d
	if r.n == 0 {
		r.setHead(t, seq)
		if q.n == 0 || t < q.classes[q.min].t {
			q.min = c // a later seq never wins a time tie
		}
	} else if tail := r.buf[(r.head+r.n-1)&(len(r.buf)-1)].t; t < tail {
		panic(fmt.Sprintf("sim: event at %v pushed behind %v in delay class %v", t, tail, d))
	}
	if r.n+1 >= len(r.buf) {
		buf := make([]event, max(2*len(r.buf), minRing))
		m := copy(buf, r.buf[r.head:])
		copy(buf[m:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	ev := &r.buf[(r.head+r.n)&(len(r.buf)-1)]
	*ev = event{t: t, seq: seq}
	r.n++
	q.n++
	return ev
}

// class returns the index of the class for delay d, opening one on
// first use.
func (q *eventQueue) class(d float64) int {
	for i := range q.classes {
		if q.classes[i].d == d {
			return i
		}
	}
	q.classes = append(q.classes, delayClass{d: d})
	q.classes[len(q.classes)-1].clearHead()
	return len(q.classes) - 1
}

// PeekT returns the earliest pending event's time.
func (q *eventQueue) PeekT() (float64, bool) {
	if q.n == 0 {
		return 0, false
	}
	return q.classes[q.min].t, true
}

// Pop removes the earliest event and returns it in place, or nil when
// the queue is empty. The event stays valid until the next Pop or
// Reset: pushes in between never overwrite it (see delayClass), and a
// ring that grows leaves it in the old buffer.
func (q *eventQueue) Pop() *event {
	if q.n == 0 {
		return nil
	}
	r := &q.classes[q.min]
	ev := &r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	q.n--
	if r.n > 0 {
		next := &r.buf[r.head]
		r.setHead(next.t, next.seq)
	} else {
		r.clearHead()
	}
	m, mk, ms := q.min, r.key, r.seq
	for i := range q.classes {
		c := &q.classes[i]
		_, borrow := bits.Sub64(c.seq, ms, 0)
		if _, borrow = bits.Sub64(c.key, mk, borrow); borrow != 0 {
			m, mk, ms = i, c.key, c.seq
		}
	}
	q.min = m
	return ev
}

// Reset empties the queue, keeping every class's ring.
func (q *eventQueue) Reset() {
	for i := range q.classes {
		c := &q.classes[i]
		c.clearHead()
		c.head, c.n = 0, 0
	}
	q.n = 0
}

// genPoint is one pre-drawn generation event in the round's flat
// schedule. The schedule is sorted by (t, node), the same total order
// the per-node cursor heap (and before it, the unbatched engine's seq
// numbering) gave generation traffic; drain walks it by index.
type genPoint struct {
	t    float64
	node int32
}

// genLess orders genPoints by (t, node) — the schedule's total order.
func genLess(a, b genPoint) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.node < b.node
}

// bucketSortGen sorts the generation schedule by (t, node), given that
// its times lie in [lo, hi): a counting scatter into about n/2 equal-
// width time buckets, then one insertion pass. The bucket index is
// monotone in t, so only points sharing a bucket can be out of order,
// and Poisson arrivals are uniform in time, so the expected cost is
// O(n). Points outside the range land in the end buckets and still
// sort correctly, only slower. Keys repeat only for identical (t, node)
// pairs, which are interchangeable, so any correct sort yields the
// same schedule.
func (l *lane) bucketSortGen(lo, hi float64) {
	s := l.genSched
	nb := len(s)/2 + 1
	if cap(l.genCount) < nb+1 {
		l.genCount = make([]int32, nb+1)
	}
	start := l.genCount[:nb+1]
	clear(start)
	scale := 0.0
	if hi > lo {
		scale = float64(nb) / (hi - lo)
	}
	for _, p := range s {
		start[genBucket(p.t, lo, scale, nb)+1]++
	}
	for b := 1; b <= nb; b++ {
		start[b] += start[b-1]
	}
	if cap(l.genTmp) < len(s) {
		l.genTmp = make([]genPoint, len(s), cap(s))
	}
	out := l.genTmp[:len(s)]
	for _, p := range s {
		b := genBucket(p.t, lo, scale, nb)
		out[start[b]] = p
		start[b]++
	}
	for i := 1; i < len(out); i++ {
		p := out[i]
		j := i
		for ; j > 0 && genLess(p, out[j-1]); j-- {
			out[j] = out[j-1]
		}
		out[j] = p
	}
	l.genSched, l.genTmp = out, s
}

// genBucket maps a time to its bucket in [0, nb).
func genBucket(t, lo, scale float64, nb int) int {
	f := (t - lo) * scale
	switch {
	case !(f > 0):
		return 0
	case f >= float64(nb):
		return nb - 1
	}
	return int(f)
}
