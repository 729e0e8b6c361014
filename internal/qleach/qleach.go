// Package qleach implements a Q-LEACH-style sectored head selection
// (Manzoor et al., "Q-LEACH: A New Routing Protocol for WSNs", arXiv
// 1303.5240): the field is partitioned into equal angular sectors
// around its center, and each sector elects its own share of the k
// cluster heads with a LEACH rotation lottery. Quartering the network
// bounds intra-cluster distances and guarantees the head set is spread
// across the field instead of clumping — the head-distribution weakness
// of classic LEACH that DEEC/QLEC also attack, fixed geometrically.
//
// Per round, sector s with quota k_s and n_s alive nodes runs the
// lottery at p_s = k_s/n_s; the sector's head count is then pinned to
// k_s exactly (trim richest-first, top up richest-first), so every
// sector fields min(k_s, n_s) heads.
package qleach

import (
	"fmt"
	"math"
	"slices"

	"qlec/internal/cluster"
	"qlec/internal/energy"
	"qlec/internal/network"
	"qlec/internal/rng"
)

// DefaultSectors is the paper's quartering.
const DefaultSectors = 4

// Config parameterizes a Q-LEACH instance.
type Config struct {
	// K is the total head count per round, split across sectors.
	K int
	// Sectors is the number of equal angular sectors; 0 means
	// DefaultSectors.
	Sectors int
	// DeathLine excludes depleted nodes.
	DeathLine energy.Joules
	// Seed drives the per-sector lotteries.
	Seed uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.K <= 0 {
		return fmt.Errorf("qleach: K must be positive, got %d", c.K)
	}
	if c.Sectors < 0 {
		return fmt.Errorf("qleach: Sectors must be non-negative, got %d", c.Sectors)
	}
	if c.DeathLine < 0 {
		return fmt.Errorf("qleach: DeathLine must be non-negative, got %v", c.DeathLine)
	}
	return nil
}

// Protocol is sectored LEACH bound to one network.
type Protocol struct {
	cfg Config
	net *network.Network
	rnd *rng.Stream
	// sector[i] is node i's fixed angular sector (positions are static).
	sector []int
	// quota[s] is sector s's head allotment: ⌊K/S⌋ plus one for the
	// first K mod S sectors.
	quota []int

	isHead  []bool
	nearest cluster.Assignment
	// lastCH[i] is the last round node i served as a sector head; the
	// lottery's epoch eligibility reads it. Kept protocol-local (unlike
	// LEACH/DEEC's shared network stamp) so the sectored epochs are
	// self-contained.
	lastCH []int
}

// New builds a Q-LEACH protocol over the network.
func New(w *network.Network, cfg Config) (*Protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Sectors == 0 {
		cfg.Sectors = DefaultSectors
	}
	if cfg.K > w.N() {
		return nil, fmt.Errorf("qleach: K=%d exceeds N=%d", cfg.K, w.N())
	}
	if cfg.Sectors > cfg.K {
		// More sectors than heads would leave permanently headless
		// sectors; collapse to one head per sector at most.
		cfg.Sectors = cfg.K
	}
	center := w.Box.Center()
	sector := make([]int, w.N())
	for i, n := range w.Nodes {
		// Angular sector in the XY plane around the field center; the
		// paper partitions its square field into quadrants, which this
		// generalizes to S slices.
		theta := math.Atan2(n.Pos.Y-center.Y, n.Pos.X-center.X) // [-π, π]
		frac := (theta + math.Pi) / (2 * math.Pi)               // [0, 1]
		s := int(frac * float64(cfg.Sectors))
		if s >= cfg.Sectors {
			s = cfg.Sectors - 1
		}
		sector[i] = s
	}
	quota := make([]int, cfg.Sectors)
	for s := range quota {
		quota[s] = cfg.K / cfg.Sectors
		if s < cfg.K%cfg.Sectors {
			quota[s]++
		}
	}
	lastCH := make([]int, w.N())
	for i := range lastCH {
		lastCH[i] = -1
	}
	return &Protocol{
		cfg:    cfg,
		net:    w,
		rnd:    rng.NewNamed(cfg.Seed, "qleach/select"),
		sector: sector,
		quota:  quota,
		isHead: make([]bool, w.N()),
		lastCH: lastCH,
	}, nil
}

// Name implements cluster.Protocol.
func (p *Protocol) Name() string { return "Q-LEACH" }

// StartRound implements cluster.Protocol: per-sector rotation lotteries.
func (p *Protocol) StartRound(round int) []int {
	// Alive nodes per sector, in ascending id order (Nodes is id-sorted).
	bySector := make([][]int, p.cfg.Sectors)
	for _, n := range p.net.Nodes {
		if !n.Alive(p.cfg.DeathLine) {
			continue
		}
		s := p.sector[n.ID]
		bySector[s] = append(bySector[s], n.ID)
	}
	var heads []int
	for s, members := range bySector {
		heads = append(heads, p.electSector(round, members, p.quota[s])...)
	}
	heads = cluster.SortedCopy(heads)
	for i := range p.isHead {
		p.isHead[i] = false
	}
	for _, h := range heads {
		p.isHead[h] = true
		p.lastCH[h] = round
	}
	p.nearest = cluster.AssignNearest(p.net, heads)
	return heads
}

// electSector runs one sector's lottery and pins the count to quota.
func (p *Protocol) electSector(round int, members []int, quota int) []int {
	if quota <= 0 || len(members) == 0 {
		return nil
	}
	if quota > len(members) {
		quota = len(members)
	}
	ps := float64(quota) / float64(len(members))
	if ps >= 1 {
		return append([]int(nil), members...)
	}
	epoch := int(math.Floor(1 / ps))
	if epoch < 1 {
		epoch = 1
	}
	slot := round % epoch
	den := 1 - ps*float64(slot)
	t := 1.0
	if den > 0 {
		t = ps / den
	}
	var heads []int
	for _, id := range members {
		// G: not a head so far in the current epoch block.
		if p.lastCH[id] >= round-slot {
			continue
		}
		if p.rnd.Float64() < t {
			heads = append(heads, id)
		}
	}
	residual := func(id int) energy.Joules { return p.net.Nodes[id].Battery.Residual() }
	byResidualDesc := func(a, b int) int {
		ra, rb := residual(a), residual(b)
		switch {
		case ra > rb:
			return -1
		case ra < rb:
			return 1
		}
		return 0
	}
	if len(heads) > quota {
		p.rnd.Shuffle(len(heads), func(i, j int) { heads[i], heads[j] = heads[j], heads[i] })
		slices.SortStableFunc(heads, byResidualDesc)
		heads = heads[:quota]
	}
	if len(heads) < quota {
		inHeads := make(map[int]bool, len(heads))
		for _, h := range heads {
			inHeads[h] = true
		}
		pool := make([]int, 0, len(members))
		for _, id := range members {
			if !inHeads[id] {
				pool = append(pool, id)
			}
		}
		p.rnd.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		slices.SortStableFunc(pool, byResidualDesc)
		heads = append(heads, pool[:quota-len(heads)]...)
	}
	return heads
}

// NextHop implements cluster.Protocol: heads burst to the BS, members
// join the nearest head.
func (p *Protocol) NextHop(node int) int {
	if p.isHead[node] {
		return network.BSID
	}
	return p.nearest.Head[node]
}

// OnOutcome implements cluster.Protocol: Q-LEACH does not learn.
func (p *Protocol) OnOutcome(node, target int, success bool) {}

// EndRound implements cluster.Protocol.
func (p *Protocol) EndRound(round int) {}

// RelayMode implements cluster.Protocol.
func (p *Protocol) RelayMode() cluster.RelayMode { return cluster.HoldAndBurst }
