// Package baseline adapts the comparison algorithms of the paper's
// evaluation — classic k-means clustering, the FCM-based hierarchical
// scheme of [14], and classic LEACH — to the cluster.Protocol interface
// so they run on the identical simulation engine as QLEC.
package baseline

import (
	"fmt"
	"math"

	"qlec/internal/cluster"
	"qlec/internal/energy"
	"qlec/internal/fcm"
	"qlec/internal/geom"
	"qlec/internal/kmeans"
	"qlec/internal/leach"
	"qlec/internal/network"
	"qlec/internal/rng"
)

// KMeans is the "classic k-means clustering" baseline (§5): clusters are
// position-only; the head of each cluster is the node nearest the
// centroid; members always forward to their cluster's head; no energy
// awareness and no learning.
type KMeans struct {
	k         int
	deathLine energy.Joules
	net       *network.Network
	rnd       *rng.Stream

	isHead []bool
	hop    []int // per-node forwarding target for the round

	// Per-round scratch, reused so steady-state selection performs no
	// allocation beyond the sorted head copy.
	scratch kmeans.Scratch
	alive   []int
	pts     []geom.Vec3
	headOf  []int
	bestD   []float64
	heads   []int
}

// growInts returns dst resized to n, reallocating only on growth.
func growInts(dst []int, n int) []int {
	if cap(dst) < n {
		return make([]int, n)
	}
	return dst[:n]
}

func growFloats(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// NewKMeans builds the baseline.
func NewKMeans(w *network.Network, k int, deathLine energy.Joules, seed uint64) (*KMeans, error) {
	if k <= 0 || k > w.N() {
		return nil, fmt.Errorf("baseline: k-means k=%d outside [1,%d]", k, w.N())
	}
	if deathLine < 0 {
		return nil, fmt.Errorf("baseline: negative death line")
	}
	return &KMeans{
		k: k, deathLine: deathLine, net: w,
		rnd:    rng.NewNamed(seed, "baseline/kmeans"),
		isHead: make([]bool, w.N()),
		hop:    make([]int, w.N()),
	}, nil
}

// Name implements cluster.Protocol.
func (p *KMeans) Name() string { return "k-means" }

// StartRound implements cluster.Protocol: recluster the alive nodes and
// pick the node nearest each centroid as head.
func (p *KMeans) StartRound(round int) []int {
	aliveIDs := p.net.AliveIDsInto(p.deathLine, p.alive)
	p.alive = aliveIDs
	for i := range p.isHead {
		p.isHead[i] = false
		p.hop[i] = network.BSID
	}
	if len(aliveIDs) == 0 {
		return nil
	}
	k := p.k
	if k > len(aliveIDs) {
		k = len(aliveIDs)
	}
	pts := p.pts[:0]
	for _, id := range aliveIDs {
		pts = append(pts, p.net.Nodes[id].Pos)
	}
	p.pts = pts
	res, err := kmeans.ClusterScratch(pts, k, p.rnd, &p.scratch)
	if err != nil {
		// Unreachable given the k clamp above; fail safe to direct-BS.
		return nil
	}
	// Head of cluster c: the member nearest the centroid.
	headOf := growInts(p.headOf, k)
	bestD := growFloats(p.bestD, k)
	p.headOf, p.bestD = headOf, bestD
	for c := range headOf {
		headOf[c] = -1
		bestD[c] = math.Inf(1)
	}
	for i, id := range aliveIDs {
		c := res.Assign[i]
		if d := pts[i].DistSq(res.Centroids[c]); d < bestD[c] {
			bestD[c] = d
			headOf[c] = id
		}
	}
	heads := p.heads[:0]
	for _, h := range headOf {
		if h >= 0 {
			heads = append(heads, h)
		}
	}
	p.heads = heads
	for i, id := range aliveIDs {
		h := headOf[res.Assign[i]]
		if h >= 0 {
			p.hop[id] = h
		}
	}
	for _, h := range heads {
		p.isHead[h] = true
		p.hop[h] = network.BSID
	}
	return cluster.SortedCopy(heads)
}

// NextHop implements cluster.Protocol: the fixed cluster assignment; no
// rerouting ever.
func (p *KMeans) NextHop(node int) int { return p.hop[node] }

// OnOutcome implements cluster.Protocol: k-means does not learn.
func (p *KMeans) OnOutcome(node, target int, success bool) {}

// EndRound implements cluster.Protocol.
func (p *KMeans) EndRound(round int) {}

// RelayMode implements cluster.Protocol.
func (p *KMeans) RelayMode() cluster.RelayMode { return cluster.HoldAndBurst }

// FCM is the FCM-based baseline of [14]: fuzzy c-means clustering, heads
// chosen to maximize residual energy weighted by membership, a
// distance-to-BS hierarchy, and per-packet multi-hop relaying of fused
// data through lower tiers toward the BS.
type FCM struct {
	k         int
	levels    int
	deathLine energy.Joules
	net       *network.Network
	rnd       *rng.Stream

	isHead []bool
	hop    []int

	// Per-round scratch, reused across StartRound calls.
	scratch   fcm.Scratch
	alive     []int
	pts       []geom.Vec3
	headOf    []int
	bestScore []float64
	heads     []int
	assign    []int
	dists     []float64
	tiers     []int
}

// NewFCM builds the baseline. levels is the hierarchy depth (the WCNC'18
// scheme's distance rings); 3 matches their evaluation scale.
func NewFCM(w *network.Network, k, levels int, deathLine energy.Joules, seed uint64) (*FCM, error) {
	if k <= 0 || k > w.N() {
		return nil, fmt.Errorf("baseline: FCM k=%d outside [1,%d]", k, w.N())
	}
	if levels < 1 {
		return nil, fmt.Errorf("baseline: FCM levels must be >= 1, got %d", levels)
	}
	if deathLine < 0 {
		return nil, fmt.Errorf("baseline: negative death line")
	}
	return &FCM{
		k: k, levels: levels, deathLine: deathLine, net: w,
		rnd:    rng.NewNamed(seed, "baseline/fcm"),
		isHead: make([]bool, w.N()),
		hop:    make([]int, w.N()),
	}, nil
}

// Name implements cluster.Protocol.
func (p *FCM) Name() string { return "FCM" }

// StartRound implements cluster.Protocol.
func (p *FCM) StartRound(round int) []int {
	aliveIDs := p.net.AliveIDsInto(p.deathLine, p.alive)
	p.alive = aliveIDs
	for i := range p.isHead {
		p.isHead[i] = false
		p.hop[i] = network.BSID
	}
	if len(aliveIDs) == 0 {
		return nil
	}
	k := p.k
	if k > len(aliveIDs) {
		k = len(aliveIDs)
	}
	pts := p.pts[:0]
	for _, id := range aliveIDs {
		pts = append(pts, p.net.Nodes[id].Pos)
	}
	p.pts = pts
	res, err := fcm.ClusterScratch(pts, k, p.rnd, &p.scratch)
	if err != nil {
		return nil
	}
	// Head of cluster c: maximize membership-weighted residual energy
	// (the WCNC'18 "maximizing residual energy" head choice).
	headOf := growInts(p.headOf, k)
	bestScore := growFloats(p.bestScore, k)
	p.headOf, p.bestScore = headOf, bestScore
	for c := range headOf {
		headOf[c] = -1
		bestScore[c] = -1
	}
	for i, id := range aliveIDs {
		resid := float64(p.net.Nodes[id].Battery.Residual())
		for c := 0; c < k; c++ {
			score := res.U[i][c] * resid
			if score > bestScore[c] {
				bestScore[c] = score
				headOf[c] = id
			}
		}
	}
	// Deduplicate: one node may top several clusters; merge those
	// clusters onto the single head. k is a handful, so a linear scan
	// beats a per-round map.
	heads := p.heads[:0]
	for _, h := range headOf {
		if h < 0 {
			continue
		}
		dup := false
		for _, x := range heads {
			if x == h {
				dup = true
				break
			}
		}
		if !dup {
			heads = append(heads, h)
		}
	}
	p.heads = heads
	// Members follow their hard assignment's head.
	assign := res.HardAssignInto(p.assign)
	p.assign = assign
	for i, id := range aliveIDs {
		h := headOf[assign[i]]
		if h >= 0 {
			p.hop[id] = h
		}
	}
	// Hierarchy: tier heads by distance to BS; each head relays to the
	// nearest head in a strictly lower tier; tier-0 heads go to the BS.
	dists := growFloats(p.dists, len(heads))
	p.dists = dists
	for i, h := range heads {
		dists[i] = p.net.DistToBS(h)
	}
	tiers, err := fcm.TiersInto(dists, p.levels, p.tiers)
	if err != nil {
		tiers = growInts(p.tiers, len(heads))
		for i := range tiers {
			tiers[i] = 0
		}
	}
	p.tiers = tiers
	for i, h := range heads {
		p.isHead[h] = true
		p.hop[h] = network.BSID
		if tiers[i] == 0 {
			continue
		}
		best, bestD := network.BSID, math.Inf(1)
		for j, other := range heads {
			if tiers[j] >= tiers[i] {
				continue
			}
			if d := p.net.Nodes[h].Pos.Dist(p.net.Nodes[other].Pos); d < bestD {
				best, bestD = other, d
			}
		}
		p.hop[h] = best
	}
	return cluster.SortedCopy(heads)
}

// NextHop implements cluster.Protocol.
func (p *FCM) NextHop(node int) int { return p.hop[node] }

// OnOutcome implements cluster.Protocol: FCM does not learn.
func (p *FCM) OnOutcome(node, target int, success bool) {}

// EndRound implements cluster.Protocol.
func (p *FCM) EndRound(round int) {}

// RelayMode implements cluster.Protocol: the multi-hop hierarchy.
func (p *FCM) RelayMode() cluster.RelayMode { return cluster.ForwardPerPacket }

// LEACH is the classic LEACH baseline: the energy-blind rotation lottery
// with nearest-head assignment.
type LEACH struct {
	net *network.Network
	sel *leach.Selector

	isHead  []bool
	nearest cluster.Assignment
	hop     []int
}

// NewLEACH builds the baseline with head fraction p = k/N.
func NewLEACH(w *network.Network, k int, deathLine energy.Joules, seed uint64) (*LEACH, error) {
	if k <= 0 || k >= w.N() {
		return nil, fmt.Errorf("baseline: LEACH k=%d outside [1,%d)", k, w.N())
	}
	sel, err := leach.NewSelector(w, leach.Config{
		P:         float64(k) / float64(w.N()),
		DeathLine: deathLine,
	}, rng.NewNamed(seed, "baseline/leach"))
	if err != nil {
		return nil, err
	}
	return &LEACH{
		net: w, sel: sel,
		isHead: make([]bool, w.N()),
		hop:    make([]int, w.N()),
	}, nil
}

// Name implements cluster.Protocol.
func (p *LEACH) Name() string { return "LEACH" }

// StartRound implements cluster.Protocol.
func (p *LEACH) StartRound(round int) []int {
	heads := p.sel.Select(round)
	for i := range p.isHead {
		p.isHead[i] = false
	}
	for _, h := range heads {
		p.isHead[h] = true
	}
	p.nearest = cluster.AssignNearest(p.net, heads)
	for id := range p.hop {
		if p.isHead[id] {
			p.hop[id] = network.BSID
		} else {
			p.hop[id] = p.nearest.Head[id]
		}
	}
	return heads
}

// NextHop implements cluster.Protocol.
func (p *LEACH) NextHop(node int) int { return p.hop[node] }

// OnOutcome implements cluster.Protocol: LEACH does not learn.
func (p *LEACH) OnOutcome(node, target int, success bool) {}

// EndRound implements cluster.Protocol.
func (p *LEACH) EndRound(round int) {}

// RelayMode implements cluster.Protocol.
func (p *LEACH) RelayMode() cluster.RelayMode { return cluster.HoldAndBurst }

// Direct is the no-clustering strawman: every node transmits straight to
// the base station. It quantifies the paper's founding premise — "a
// clustering technique transforms the global communication into the
// local communication for saving energy" (§1) — as the gap between
// Direct and any clustered protocol.
type Direct struct{}

// NewDirect builds the baseline.
func NewDirect() *Direct { return &Direct{} }

// Name implements cluster.Protocol.
func (p *Direct) Name() string { return "direct-to-BS" }

// StartRound implements cluster.Protocol: no heads, ever.
func (p *Direct) StartRound(round int) []int { return nil }

// NextHop implements cluster.Protocol.
func (p *Direct) NextHop(node int) int { return network.BSID }

// OnOutcome implements cluster.Protocol.
func (p *Direct) OnOutcome(node, target int, success bool) {}

// EndRound implements cluster.Protocol.
func (p *Direct) EndRound(round int) {}

// RelayMode implements cluster.Protocol.
func (p *Direct) RelayMode() cluster.RelayMode { return cluster.HoldAndBurst }
