// Package fleet turns qlecd daemons into a cooperating fleet: a
// consistent-hash ring assigns every content hash one owning peer (the
// cache authority other peers proxy hits from), a membership table
// tracks which peers are ready to take work, and a lease table hands
// sweep cells out to peers under a TTL so a peer dying mid-cell just
// returns its work to the pool. The package is transport-agnostic data
// structures plus a thin HTTP peer client over the wire types in
// wire.go; internal/service mounts the matching handlers and drives
// the scheduling (DESIGN.md §14).
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
	"sync"
)

// replicas is the virtual-node count per peer. 128 points per peer
// keeps the expected per-peer load imbalance under ~10% (stddev of the
// largest arc sum shrinks like 1/√replicas) while the whole ring for a
// 16-peer fleet stays at 2048 points — binary searches are a few cache
// lines.
const replicas = 128

// Ring is a consistent-hash ring over peer IDs (base URLs). Keys — the
// sha256 canonical-config hashes that already address the result cache
// — map to the first virtual node clockwise; adding one peer of n moves
// only ~1/(n+1) of the key space (tested in ring_test.go). Safe for
// concurrent use.
type Ring struct {
	mu     sync.RWMutex
	peers  map[string]struct{}
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	h    uint64
	peer string
}

// NewRing builds an empty ring.
func NewRing() *Ring {
	return &Ring{peers: make(map[string]struct{})}
}

// ringHash positions a byte string on the ring: the first 8 bytes of
// its SHA-256. Config hashes are already hex SHA-256 digests, but
// hashing again costs little and makes arbitrary peer IDs uniform.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a peer (idempotent).
func (r *Ring) Add(peer string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.peers[peer]; ok {
		return
	}
	r.peers[peer] = struct{}{}
	for i := 0; i < replicas; i++ {
		r.points = append(r.points, ringPoint{h: ringHash(peer + "#" + strconv.Itoa(i)), peer: peer})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].h < r.points[j].h })
}

// Len reports the number of peers.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.peers)
}

// Successors returns up to n distinct peers in clockwise preference
// order from key's position: the owner first, then the fallbacks a
// caller walks when the owner is down or draining. Every peer appears
// at most once.
func (r *Ring) Successors(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.peers) {
		n = len(r.peers)
	}
	kh := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= kh })
	seen := make(map[string]struct{}, n)
	out := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.peer]; dup {
			continue
		}
		seen[p.peer] = struct{}{}
		out = append(out, p.peer)
	}
	return out
}
