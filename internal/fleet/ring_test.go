package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// testKeys returns n deterministic sha256-hex keys — the same shape as
// the canonical config hashes the ring distributes in production.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
		keys[i] = hex.EncodeToString(sum[:])
	}
	return keys
}

func peerNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return out
}

// TestRingBalance: with 128 virtual nodes per peer, every peer's share
// of a large key set stays within ±35% of the fair share for fleets of
// 3, 5 and 16 peers. (The stddev of a peer's share is ~1/√replicas ≈ 9%
// of fair share; ±35% is ~4σ, far from flaky while still catching any
// real placement bug, which skews shares by integer factors.)
func TestRingBalance(t *testing.T) {
	keys := testKeys(100_000)
	for _, peers := range []int{3, 5, 16} {
		t.Run(fmt.Sprintf("%dpeers", peers), func(t *testing.T) {
			r := NewRing()
			for _, p := range peerNames(peers) {
				r.Add(p)
			}
			counts := make(map[string]int)
			for _, k := range keys {
				owner := ownerOf(r, k)
				if owner == "" {
					t.Fatalf("no owner for %s", k)
				}
				counts[owner]++
			}
			if len(counts) != peers {
				t.Fatalf("only %d of %d peers own keys: %v", len(counts), peers, counts)
			}
			fair := float64(len(keys)) / float64(peers)
			for p, n := range counts {
				if ratio := float64(n) / fair; ratio < 0.65 || ratio > 1.35 {
					t.Errorf("peer %s owns %d keys (%.2f× fair share %v)", p, n, ratio, fair)
				}
			}
		})
	}
}

// TestRingChurn: adding or leaving out one peer moves strictly less than
// 2/n of the keys (expected movement is 1/(n+1) on join and 1/n on
// leave), and every key that does move on a join moves TO the joining
// peer — consistent hashing's whole point.
func TestRingChurn(t *testing.T) {
	keys := testKeys(50_000)
	for _, peers := range []int{3, 5, 16} {
		t.Run(fmt.Sprintf("join%d", peers), func(t *testing.T) {
			names := peerNames(peers + 1)
			r := NewRing()
			for _, p := range names[:peers] {
				r.Add(p)
			}
			before := make(map[string]string, len(keys))
			for _, k := range keys {
				before[k] = ownerOf(r, k)
			}
			joiner := names[peers]
			r.Add(joiner)
			moved := 0
			for _, k := range keys {
				owner := ownerOf(r, k)
				if owner == before[k] {
					continue
				}
				moved++
				if owner != joiner {
					t.Fatalf("key %s moved %s → %s, not to the joining peer %s", k, before[k], owner, joiner)
				}
			}
			if limit := 2 * len(keys) / peers; moved >= limit {
				t.Errorf("join moved %d/%d keys, want < %d (2/n churn bound)", moved, len(keys), limit)
			}
		})
		t.Run(fmt.Sprintf("leave%d", peers), func(t *testing.T) {
			// Ownership is a function of the member set, so a ring
			// built without one peer is that peer leaving.
			names := peerNames(peers)
			r, rest := NewRing(), NewRing()
			for i, p := range names {
				r.Add(p)
				if i > 0 {
					rest.Add(p)
				}
			}
			leaver := names[0]
			moved := 0
			for _, k := range keys {
				before, owner := ownerOf(r, k), ownerOf(rest, k)
				if owner != before {
					moved++
					if before != leaver {
						t.Fatalf("key %s moved %s → %s though %s left", k, before, owner, leaver)
					}
				}
			}
			if limit := 2 * len(keys) / peers; moved >= limit {
				t.Errorf("leave moved %d/%d keys, want < %d (2/n churn bound)", moved, len(keys), limit)
			}
		})
	}
}

// TestRingSuccessors: the fallback chain starts at the owner, lists
// distinct peers, and never exceeds the member count.
func TestRingSuccessors(t *testing.T) {
	r := NewRing()
	for _, p := range peerNames(5) {
		r.Add(p)
	}
	for _, k := range testKeys(100) {
		succ := r.Successors(k, 99)
		if len(succ) != 5 {
			t.Fatalf("got %d successors, want 5", len(succ))
		}
		if succ[0] != ownerOf(r, k) {
			t.Fatalf("successors[0] = %s, owner = %s", succ[0], ownerOf(r, k))
		}
		seen := map[string]bool{}
		for _, p := range succ {
			if seen[p] {
				t.Fatalf("duplicate successor %s", p)
			}
			seen[p] = true
		}
	}
}

// TestRingOwnerStable: ownership is a pure function of the member set,
// independent of insertion order.
func TestRingOwnerStable(t *testing.T) {
	keys := testKeys(1000)
	a, b := NewRing(), NewRing()
	names := peerNames(4)
	for _, p := range names {
		a.Add(p)
	}
	for i := len(names) - 1; i >= 0; i-- {
		b.Add(names[i])
	}
	for _, k := range keys {
		if ownerOf(a, k) != ownerOf(b, k) {
			t.Fatalf("owner(%s) differs by insertion order: %s vs %s", k, ownerOf(a, k), ownerOf(b, k))
		}
	}
	if got := ownerOf(NewRing(), "x"); got != "" {
		t.Fatalf("empty ring owner = %q, want \"\"", got)
	}
}

// ownerOf returns the peer owning key — the first virtual node at or
// clockwise after the key's ring position — or "" on an empty ring.
func ownerOf(r *Ring, key string) string {
	if owners := r.Successors(key, 1); len(owners) > 0 {
		return owners[0]
	}
	return ""
}
