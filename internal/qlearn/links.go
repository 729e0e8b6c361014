package qlearn

import "math"

// linkStore holds the per-link success estimates a Learner has observed,
// grouped by sender. A node learns P(b_i, h_j) only from the ACKs of
// packets it sent (§4.2), so it knows the targets it used, not all N;
// the store keeps exactly those, and a missing entry means "no
// observations yet" (LinkP then reports the prior).
//
// A sender's block comes in one of two forms:
//
//   - sparse: n entries sorted by target at [off, off+n) of the parallel
//     to/p slab, with room up to off+cap, found by a linear scan. A
//     sender starts here, and at the §5.3 scale every sender stays here.
//   - direct: one estimate per possible target at [off, off+width) of
//     rows, indexed by target+1, NaN where nothing was observed. A
//     sparse block that would grow to a quarter of width becomes direct
//     instead, so a sender that talks to a large share of the network
//     (small N, long runs) gets O(1) lookups and O(k) row fills, in at
//     most eight slots per target it has observed.
//
// A sparse block that fills moves to the end of the slab at twice its
// capacity; when the slab has no room left it is rebuilt at twice its
// size with the sparse blocks packed back to back, so the space left
// behind by moved and converted blocks never exceeds the live blocks'
// own. rows only grows, also by doubling, up to N·width slots. A
// learner thus makes O(log links) allocations.
type linkStore struct {
	to     []int32   // sparse entries' targets, network.BSID for the base station
	p      []float64 // sparse entries' estimates, parallel to to
	rows   []float64 // direct blocks
	blocks []linkBlock
	width  int32 // possible targets per sender: N nodes and the BS
}

// linkBlock locates one sender's entries; n and cap are 0 once direct.
type linkBlock struct {
	off, n, cap int32
	direct      bool
}

// firstBlock is the room each sender starts with.
const firstBlock = 4

// newLinkStore reserves a firstBlock-entry sparse block for each of n
// senders.
func newLinkStore(n int) linkStore {
	s := linkStore{
		to:     make([]int32, n*firstBlock),
		p:      make([]float64, n*firstBlock),
		blocks: make([]linkBlock, n),
		width:  int32(n + 1),
	}
	for i := range s.blocks {
		s.blocks[i] = linkBlock{off: int32(i * firstBlock), cap: firstBlock}
	}
	return s
}

// sparse returns the targets of from's sparse block and the slab index
// of the first, or ok false when the block is direct.
func (s *linkStore) sparse(from int) (targets []int32, off int, ok bool) {
	b := s.blocks[from]
	if b.direct {
		return nil, 0, false
	}
	return s.to[b.off : b.off+b.n], int(b.off), true
}

// lookup returns the estimate of the (from, to) link, or false when the
// link has not been observed.
func (s *linkStore) lookup(from, to int) (float64, bool) {
	b := s.blocks[from]
	if b.direct {
		p := s.rows[int(b.off)+to+1]
		return p, !math.IsNaN(p)
	}
	if i, ok := s.search(b, to); ok {
		return s.p[i], true
	}
	return 0, false
}

// slot returns where the estimate of the (from, to) link is kept, and
// whether the link was observed before; for a new link the slot is
// made, and its value is the caller's to set. The pointer is valid
// until the next call.
func (s *linkStore) slot(from, to int) (*float64, bool) {
	b := &s.blocks[from]
	if !b.direct {
		i, ok := s.search(*b, to)
		if ok {
			return &s.p[i], true
		}
		if b.n < b.cap || 8*b.cap < s.width {
			return &s.p[s.insert(from, i, to)], false
		}
		s.makeDirect(from)
	}
	p := &s.rows[int(b.off)+to+1]
	return p, !math.IsNaN(*p)
}

// search returns the slab index of the entry for to in sparse block b
// and true, or the index where it would be inserted and false. A
// sparse block holds a few dozen targets at most, so a linear scan
// serves.
func (s *linkStore) search(b linkBlock, to int) (int, bool) {
	blk, t := s.to[b.off:b.off+b.n], int32(to)
	i := 0
	for i < len(blk) && blk[i] < t {
		i++
	}
	return int(b.off) + i, i < len(blk) && blk[i] == t
}

// insert adds a (from, to) entry to from's sparse block at slab index
// at, as returned by a failed search, and returns its slab index, which
// differs from at when the block had to move.
func (s *linkStore) insert(from, at, to int) int {
	b := &s.blocks[from]
	if b.n == b.cap {
		pos := int32(at) - b.off
		s.move(from, 2*b.cap)
		at = int(b.off + pos)
	}
	lo, hi := int32(at), b.off+b.n
	copy(s.to[lo+1:hi+1], s.to[lo:hi])
	copy(s.p[lo+1:hi+1], s.p[lo:hi])
	s.to[lo] = int32(to)
	b.n++
	return at
}

// move gives from's sparse block c slots at the end of the slab,
// rebuilding the slab first when it has no room for them, and copies
// its entries there.
func (s *linkStore) move(from int, c int32) {
	if len(s.to)+int(c) > cap(s.to) {
		s.pack(int(c))
	}
	b := &s.blocks[from]
	off := int32(len(s.to))
	s.to = s.to[:len(s.to)+int(c)]
	s.p = s.p[:len(s.p)+int(c)]
	copy(s.to[off:], s.to[b.off:b.off+b.n])
	copy(s.p[off:], s.p[b.off:b.off+b.n])
	b.off, b.cap = off, c
}

// pack rebuilds the slab with the sparse blocks back to back, keeping
// their capacities, and room for at least extra more entries.
func (s *linkStore) pack(extra int) {
	live := extra
	for _, b := range s.blocks {
		live += int(b.cap)
	}
	to := make([]int32, 0, 2*live)
	p := make([]float64, 0, 2*live)
	for i := range s.blocks {
		b := &s.blocks[i]
		if b.direct {
			continue
		}
		lo, hi := b.off, b.off+b.cap
		b.off = int32(len(to))
		to = append(to, s.to[lo:hi]...)
		p = append(p, s.p[lo:hi]...)
	}
	s.to, s.p = to, p
}

// makeDirect turns from's sparse block into a direct one at the end of
// rows.
func (s *linkStore) makeDirect(from int) {
	n := len(s.rows)
	w := int(s.width)
	if n+w > cap(s.rows) {
		// At most every sender goes direct, so rows never needs more
		// than N·width slots.
		rows := make([]float64, n, min(2*(n+w), len(s.blocks)*w))
		copy(rows, s.rows)
		s.rows = rows
	}
	s.rows = s.rows[:n+w]
	row := s.rows[n:]
	for i := range row {
		row[i] = math.NaN()
	}
	b := &s.blocks[from]
	for i := b.off; i < b.off+b.n; i++ {
		row[s.to[i]+1] = s.p[i]
	}
	*b = linkBlock{off: int32(n), direct: true}
}
