package sim

import "qlec/internal/packet"

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

	node    int // generator / retrier / servicing head
	target  int // transmission target (evArrive)
	attempt int // transmission attempt number, 0-based
	pkt     packet.Packet
}

// heapEntry is the 24-byte ordering key kept in the heap array proper.
// The full ~90-byte event lives in a side slab and is touched exactly
// twice (once on Push, once on Pop); sift operations move only keys.
// The previous layout sifted whole events, and the resulting struct
// copies (runtime.duffcopy) were the single largest line item in the
// simulator's CPU profile.
type heapEntry struct {
	t   float64
	seq uint64
	idx int32 // slab slot holding the full event
}

// eventHeap is a binary min-heap on (t, seq). A hand-rolled heap (rather
// than container/heap) keeps the hot path free of interface conversions;
// the simulator pushes and pops millions of events per run.
type eventHeap struct {
	entries []heapEntry
	slab    []event
	free    []int32 // recycled slab slots
}

func (h *eventHeap) Len() int { return len(h.entries) }

func (h *eventHeap) less(i, j int) bool {
	if h.entries[i].t != h.entries[j].t {
		return h.entries[i].t < h.entries[j].t
	}
	return h.entries[i].seq < h.entries[j].seq
}

// Push inserts an event.
func (h *eventHeap) Push(e event) {
	var idx int32
	if n := len(h.free); n > 0 {
		idx = h.free[n-1]
		h.free = h.free[:n-1]
		h.slab[idx] = e
	} else {
		h.slab = append(h.slab, e)
		idx = int32(len(h.slab) - 1)
	}
	h.entries = append(h.entries, heapEntry{t: e.t, seq: e.seq, idx: idx})
	i := len(h.entries) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.entries[i], h.entries[parent] = h.entries[parent], h.entries[i]
		i = parent
	}
}

// Pop removes and returns the earliest event. ok is false when empty.
func (h *eventHeap) Pop() (event, bool) {
	var ev event
	ok := h.PopInto(&ev)
	return ev, ok
}

// PopInto removes the earliest event into *ev, reporting whether one
// existed. The drain loop uses it so the ~90-byte event is copied once
// (slab → caller's local) instead of twice through a return value.
func (h *eventHeap) PopInto(ev *event) bool {
	if len(h.entries) == 0 {
		return false
	}
	top := h.entries[0]
	last := len(h.entries) - 1
	h.entries[0] = h.entries[last]
	h.entries = h.entries[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.entries) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.entries) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.entries[i], h.entries[smallest] = h.entries[smallest], h.entries[i]
		i = smallest
	}
	*ev = h.slab[top.idx]
	h.free = append(h.free, top.idx)
	return true
}

// Alloc reserves a cleared slab slot for in-place event construction.
// The caller fills the slot's fields and then publishes it with Commit;
// nothing else may touch the heap in between. Building events in the
// slab removes the pass-by-value copies (runtime.duffcopy) that Push
// paid on every scheduled event.
func (h *eventHeap) Alloc() (*event, int32) {
	var idx int32
	if n := len(h.free); n > 0 {
		idx = h.free[n-1]
		h.free = h.free[:n-1]
		h.slab[idx] = event{}
	} else {
		h.slab = append(h.slab, event{})
		idx = int32(len(h.slab) - 1)
	}
	return &h.slab[idx], idx
}

// Commit publishes a slot reserved by Alloc under the (t, seq) ordering
// key. Sift-up moves only 24-byte keys; the slab entry stays put.
func (h *eventHeap) Commit(t float64, seq uint64, idx int32) {
	h.entries = append(h.entries, heapEntry{t: t, seq: seq, idx: idx})
	i := len(h.entries) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.entries[i], h.entries[parent] = h.entries[parent], h.entries[i]
		i = parent
	}
}

// Peek returns the earliest event without removing it.
func (h *eventHeap) Peek() (event, bool) {
	if len(h.entries) == 0 {
		return event{}, false
	}
	return h.slab[h.entries[0].idx], true
}

// PeekT returns the earliest event's time without touching the slab —
// the merge loop against the generation schedule calls this once per
// event.
func (h *eventHeap) PeekT() (float64, bool) {
	if len(h.entries) == 0 {
		return 0, false
	}
	return h.entries[0].t, true
}

// Reset empties the heap, retaining capacity.
func (h *eventHeap) Reset() {
	h.entries = h.entries[:0]
	h.slab = h.slab[:0]
	h.free = h.free[:0]
}

// genPoint is one pre-drawn generation event in the round's flat
// schedule: sorted by (t, node), the same total order the per-node
// cursor heap (and before it, the unbatched engine's seq numbering)
// gave generation traffic. A sorted slice walked by index replaces one
// heap pop+push per generation event with an increment; the sort is a
// single cache-linear pass over 16-byte entries.
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

// sortGen sorts a generation schedule by (t, node). It replaces
// slices.SortFunc in buildGen: the generic sort routes every comparison
// through a closure, and at one sort per round that indirection
// was a measurable slice of the kernel's profile. The algorithm is a
// median-of-three quicksort with an insertion-sort cutoff; any correct
// sort yields the identical schedule (keys repeat only for identical
// (t, node) pairs, which are interchangeable), so this is behavior-
// preserving by construction.
func sortGen(s []genPoint) {
	for len(s) > 16 {
		// Order first/mid/last in place: s[m] becomes the median pivot
		// and the ends become sentinels bounding the inner scans.
		m := (len(s) - 1) / 2
		last := len(s) - 1
		if genLess(s[m], s[0]) {
			s[0], s[m] = s[m], s[0]
		}
		if genLess(s[last], s[0]) {
			s[0], s[last] = s[last], s[0]
		}
		if genLess(s[last], s[m]) {
			s[m], s[last] = s[last], s[m]
		}
		pivot := s[m]
		i, j := -1, len(s)
		for {
			for i++; genLess(s[i], pivot); i++ {
			}
			for j--; genLess(pivot, s[j]); j-- {
			}
			if i >= j {
				break
			}
			s[i], s[j] = s[j], s[i]
		}
		// Recurse into the smaller side, iterate on the larger.
		if j+1 < len(s)-(j+1) {
			sortGen(s[:j+1])
			s = s[j+1:]
		} else {
			sortGen(s[j+1:])
			s = s[:j+1]
		}
	}
	for i := 1; i < len(s); i++ {
		p := s[i]
		j := i - 1
		for j >= 0 && genLess(p, s[j]) {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = p
	}
}
