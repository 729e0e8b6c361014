// Package cluster defines the contract between the simulation engine and
// the clustering/routing protocols under test (QLEC and the baselines),
// plus the assignment utilities every protocol shares.
//
// The paper evaluates three protocols under one common round structure
// (§5.1): per round, a protocol selects cluster heads, non-head nodes
// forward sensing packets to a head of the protocol's choosing, heads
// fuse and deliver to the base station. The Protocol interface captures
// exactly the decision points where the protocols differ; everything else
// (radio costs, queueing, packet loss, metrics) lives in the engine and
// is identical across protocols, so measured differences are attributable
// to the algorithms alone.
package cluster

import (
	"fmt"
	"sort"

	"qlec/internal/energy"
	"qlec/internal/geom"
	"qlec/internal/network"
)

// RelayMode describes how a protocol's cluster heads move fused data to
// the base station.
type RelayMode int

const (
	// HoldAndBurst: heads accumulate member packets during the round and
	// send one aggregated, compressed burst directly to the BS at the end
	// of the round (QLEC, k-means, LEACH, plain DEEC).
	HoldAndBurst RelayMode = iota
	// ForwardPerPacket: heads forward each fused packet onward during the
	// round, hop by hop through other heads toward the BS (the FCM-based
	// baseline's hierarchical multi-hop routing).
	ForwardPerPacket
)

// String implements fmt.Stringer.
func (m RelayMode) String() string {
	switch m {
	case HoldAndBurst:
		return "hold-and-burst"
	case ForwardPerPacket:
		return "forward-per-packet"
	default:
		return fmt.Sprintf("RelayMode(%d)", int(m))
	}
}

// Protocol is a clustering + routing algorithm under test.
//
// Engine call order per round r:
//
//	heads := p.StartRound(r)
//	... many p.NextHop / p.OnOutcome during the round ...
//	p.EndRound(r)
//
// Implementations may assume calls are single-goroutine.
type Protocol interface {
	// Name identifies the protocol in result tables.
	Name() string

	// StartRound selects the cluster heads for round r and returns their
	// node ids. The engine treats every other alive node as a member.
	// An empty head set is legal (members then route straight to the BS).
	StartRound(round int) []int

	// NextHop returns where the given node forwards its current packet:
	// a node id, or network.BSID for the base station. For member nodes
	// this selects a cluster head; for head nodes (under
	// ForwardPerPacket) it selects the next relay toward the BS.
	NextHop(node int) int

	// OnOutcome reports the result of a transmission attempt from node
	// to target (which may be network.BSID): success is true when the
	// packet was accepted (link worked and queue had space). Protocols
	// use it to learn link quality; baselines may ignore it.
	OnOutcome(node, target int, success bool)

	// EndRound runs after the end-of-round delivery, before the next
	// StartRound. QLEC updates its cluster-head V values here
	// (Algorithm 1, line 15).
	EndRound(round int)

	// RelayMode declares how heads move fused data to the BS.
	RelayMode() RelayMode
}

// StaticRouter is a retired optional Protocol extension that exposed a
// round's fixed member→target map. Nothing in this module implements or
// consumes it any more; the type stays only because the separate bench
// module still names it.
type StaticRouter interface {
	StaticHops() []int
}

// GeometryInvalidator is an optional Protocol extension for protocols
// that memoize position-derived quantities (distances, path-loss costs)
// across rounds. The simulation engine calls InvalidateGeometry after
// every mobility step, immediately after node positions change; a
// protocol that never receives the call may assume positions are frozen
// for the network's lifetime.
type GeometryInvalidator interface {
	InvalidateGeometry()
}

// Assignment maps every node to its cluster: Head[i] is the head node id
// serving node i (a head maps to itself), or network.BSID when no head
// is reachable.
type Assignment struct {
	Head []int
}

// AssignNearest builds the classic nearest-head assignment over the given
// positions: every node joins the cluster of the closest head ("nodes
// that are not selected as cluster heads dynamically choose the nearest
// cluster head", §3.1). Heads map to themselves. With no heads, every
// node maps to network.BSID.
func AssignNearest(w *network.Network, heads []int) Assignment {
	a := Assignment{Head: make([]int, w.N())}
	if len(heads) == 0 {
		for i := range a.Head {
			a.Head[i] = network.BSID
		}
		return a
	}
	pts := make([]geom.Vec3, len(heads))
	for i, h := range heads {
		pts[i] = w.Nodes[h].Pos
	}
	grid := geom.NewGrid(w.Box, pts, heads, 0)
	isHead := make(map[int]bool, len(heads))
	for _, h := range heads {
		isHead[h] = true
	}
	for i, n := range w.Nodes {
		if isHead[i] {
			a.Head[i] = i
			continue
		}
		id, _, ok := grid.Nearest(n.Pos)
		if !ok {
			a.Head[i] = network.BSID
			continue
		}
		a.Head[i] = id
	}
	return a
}

// Sizes returns cluster sizes keyed by head id (head included).
func (a Assignment) Sizes() map[int]int {
	sizes := map[int]int{}
	for _, h := range a.Head {
		if h != network.BSID {
			sizes[h]++
		}
	}
	return sizes
}

// MeanSqDistToHead returns the average squared member→head distance — the
// empirical counterpart of Lemma 1's E[d²_toCH], used by tests and the
// Theorem 1 bench. Heads contribute zero. Nodes assigned to the BS are
// skipped.
func MeanSqDistToHead(w *network.Network, a Assignment) float64 {
	if len(a.Head) != w.N() {
		panic("cluster: assignment size mismatch")
	}
	sum, n := 0.0, 0
	for i, h := range a.Head {
		if h == network.BSID {
			continue
		}
		n++
		if h == i {
			continue
		}
		sum += w.Nodes[i].Pos.DistSq(w.Nodes[h].Pos)
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ValidateHeads checks a head set: ids in range, alive at the given death
// line, and duplicate-free. Protocol tests call it on every round's
// output; the engine trusts protocols on release paths.
func ValidateHeads(w *network.Network, heads []int, deathLine energy.Joules) error {
	seen := map[int]bool{}
	for _, h := range heads {
		if h < 0 || h >= w.N() {
			return fmt.Errorf("cluster: head id %d out of range [0,%d)", h, w.N())
		}
		if seen[h] {
			return fmt.Errorf("cluster: duplicate head %d", h)
		}
		if !w.Nodes[h].Alive(deathLine) {
			return fmt.Errorf("cluster: head %d is below the death line", h)
		}
		seen[h] = true
	}
	return nil
}

// SortedCopy returns a sorted copy of ids — protocols return heads in
// deterministic ascending order so runs are reproducible.
func SortedCopy(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}
