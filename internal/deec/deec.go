// Package deec implements the improved Distributed Energy-Efficient
// Clustering head-selection protocol of QLEC's Cluster Head Selection
// Phase (§3.1, Algorithms 2 and 3), plus the plain-DEEC and ablation
// variants the benchmarks compare against.
//
// Per round r, for every node b_i:
//
//	p_i    = p_opt · E_i(r) / Ē(r)                          (Eq. 1)
//	Ē(r)   = (1/N) · E_initial · (1 − r/R)                  (Eq. 2)
//	T(b_i) = p_i / (1 − p_i·(r mod ⌊1/p_i⌋))  if b_i ∈ C     (Eq. 3)
//
// where the candidate set C contains nodes that have not served as head
// within their rotating epoch n_i = 1/p_i. The paper's two improvements:
//
//	E_th(r) = (1 − (r/R)²)·E_initial,i                       (Eq. 4)
//
// a minimum-energy floor for head eligibility, and a redundancy-reduction
// broadcast: each fresh head HELLOs its residual energy within the
// cluster coverage radius d_c (Eq. 5) and any head hearing a richer
// neighbour withdraws (Algorithm 3).
package deec

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"qlec/internal/cluster"
	"qlec/internal/energy"
	"qlec/internal/geom"
	"qlec/internal/network"
	"qlec/internal/rng"
)

// Config parameterizes the selector.
type Config struct {
	// K is the target cluster count per round (k_opt of Theorem 1).
	K int
	// TotalRounds is R, the planned lifespan in rounds used by Eq. (2)
	// and Eq. (4).
	TotalRounds int
	// DeathLine excludes depleted nodes from candidacy.
	DeathLine energy.Joules

	// EnergyFloor enables the Eq. (4) minimum-energy restriction
	// (improvement 1). Disabled it degrades toward plain DEEC.
	EnergyFloor bool
	// ReduceRedundancy enables the Algorithm 3 HELLO-withdrawal step
	// (improvement 2).
	ReduceRedundancy bool
	// TopUp fills the head set to exactly K when the threshold lottery
	// plus floor leave a deficit, using the highest-residual eligible
	// nodes ("choose another node up to the demand to replace it",
	// §3.1). Plain DEEC leaves the count random.
	TopUp bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.K <= 0 {
		return fmt.Errorf("deec: K must be positive, got %d", c.K)
	}
	if c.TotalRounds <= 0 {
		return fmt.Errorf("deec: TotalRounds must be positive, got %d", c.TotalRounds)
	}
	if c.DeathLine < 0 {
		return fmt.Errorf("deec: DeathLine must be non-negative, got %v", c.DeathLine)
	}
	return nil
}

// PlainConfig returns classic DEEC: lottery only, no floor, no
// redundancy reduction, no top-up (used for ablations).
func PlainConfig(k, totalRounds int, deathLine energy.Joules) Config {
	return Config{K: k, TotalRounds: totalRounds, DeathLine: deathLine}
}

// Selector runs head selection round after round over one network.
type Selector struct {
	cfg Config
	net *network.Network
	rnd *rng.Stream
	dc  float64

	// Per-round scratch, reused across Select calls so steady-state
	// selection performs no allocation. None of this affects results:
	// Select returns a fresh sorted copy of the head set.
	headsBuf []int
	reserve  []candidate
	ptsBuf   []geom.Vec3
	grid     *geom.Grid // redundancy-reduction index, rebuilt in place
	inHeads  []bool     // membership scratch for topUp, cleared after use
}

// NewSelector builds a selector. The stream drives the threshold
// lottery; pass a named stream for reproducibility.
func NewSelector(w *network.Network, cfg Config, r *rng.Stream) (*Selector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	side := w.Box.Size().X
	return &Selector{
		cfg: cfg,
		net: w,
		rnd: r,
		dc:  geom.CoverageRadius(side, cfg.K),
	}, nil
}

// pMin floors p_i so that 1/p_i (the rotating epoch) and Eq. (3) stay
// well-defined for nearly-drained nodes.
const pMin = 1e-4

// probability returns p_i (Eq. 1) for the node at round r, clamped into
// [pMin, 0.999].
func (s *Selector) probability(n *network.Node, round int) float64 {
	mean := float64(s.net.EstimatedMeanEnergy(round, s.cfg.TotalRounds))
	popt := float64(s.cfg.K) / float64(s.net.N())
	return probabilityFrom(n, mean, popt)
}

// probabilityFrom is probability with the node-independent terms — the
// Eq. (2) mean-energy estimate and p_opt — hoisted, so Select computes
// them once per round instead of once per node.
func probabilityFrom(n *network.Node, mean, popt float64) float64 {
	var p float64
	if mean <= 0 {
		// Eq. (2) estimates zero average energy at or past round R; fall
		// back to the optimal probability so late rounds keep rotating.
		p = popt
	} else {
		p = popt * float64(n.Battery.Residual()) / mean
	}
	return clamp(p, pMin, 0.999)
}

// threshold returns T(b_i) (Eq. 3).
func threshold(p float64, round int) float64 {
	epoch := int(math.Floor(1 / p))
	if epoch < 1 {
		epoch = 1
	}
	den := 1 - p*float64(round%epoch)
	if den <= 0 {
		// Degenerate tail of the epoch: the node is overdue; select it
		// with certainty, matching LEACH's intent.
		return 1
	}
	return p / den
}

// energyFloor returns E_th(r) (Eq. 4) for the node.
func (s *Selector) energyFloor(n *network.Node, round int) energy.Joules {
	fr := float64(round) / float64(s.cfg.TotalRounds)
	f := 1 - fr*fr
	if f < 0 {
		f = 0
	}
	return energy.Joules(f) * n.Battery.Initial()
}

// candidate is a node eligible for head duty this round; at is its
// place in a shuffled slice, set by byResidual.
type candidate struct {
	id       int
	residual energy.Joules
	at       int
}

// byResidual sorts c by residual energy, highest first, and equal
// residuals by their place in c: the order a stable sort by residual
// gives, from one unstable sort on a key no two candidates share.
func byResidual(c []candidate) {
	for i := range c {
		c[i].at = i
	}
	slices.SortFunc(c, func(a, b candidate) int {
		return cmp.Or(cmp.Compare(b.residual, a.residual), cmp.Compare(a.at, b.at))
	})
}

// Select runs one round of head selection (Algorithms 2+3) and returns
// the head ids in ascending order. It updates LastCHRound on the chosen
// nodes.
func (s *Selector) Select(round int) []int {
	heads := s.headsBuf[:0]
	reserve := s.reserve[:0] // eligible-by-epoch nodes for top-up (or the trim's scratch)

	mean := float64(s.net.EstimatedMeanEnergy(round, s.cfg.TotalRounds))
	popt := float64(s.cfg.K) / float64(s.net.N())
	for _, n := range s.net.Nodes {
		if !n.Alive(s.cfg.DeathLine) {
			continue
		}
		p := probabilityFrom(n, mean, popt)
		epoch := int(math.Floor(1 / p))
		if epoch < 1 {
			epoch = 1
		}
		// Candidate set C: not a head within the last n_i rounds.
		if n.LastCHRound >= 0 && round-n.LastCHRound < epoch {
			continue
		}
		reserve = append(reserve, candidate{id: n.ID, residual: n.Battery.Residual()})
		// Improvement 1: Eq. (4) energy floor.
		if s.cfg.EnergyFloor && n.Battery.Residual() <= s.energyFloor(n, round) {
			continue
		}
		if s.rnd.Float64() < threshold(p, round) {
			heads = append(heads, n.ID)
		}
	}

	// Improvement 2: redundancy reduction (Algorithm 3).
	if s.cfg.ReduceRedundancy && len(heads) > 1 {
		heads = s.reduceRedundancy(heads)
	}

	// Keep the count pinned at K: trim richest-first when over, top up
	// from the reserve when under.
	if len(heads) > s.cfg.K {
		// Shuffle first so equal-residual ties are drawn uniformly
		// rather than biased toward low ids. Every head is in the
		// reserve, which a trimmed round no longer needs, so the
		// reserve's array holds the sort's keys.
		s.rnd.Shuffle(len(heads), func(i, j int) { heads[i], heads[j] = heads[j], heads[i] })
		keyed := reserve[:0]
		for _, h := range heads {
			keyed = append(keyed, candidate{id: h, residual: s.net.Nodes[h].Battery.Residual()})
		}
		byResidual(keyed)
		heads = heads[:s.cfg.K]
		for i := range heads {
			heads[i] = keyed[i].id
		}
	}
	if s.cfg.TopUp && len(heads) < s.cfg.K {
		heads = s.topUp(heads, reserve)
	}

	s.headsBuf = heads[:0]
	s.reserve = reserve[:0]
	heads = cluster.SortedCopy(heads)
	for _, h := range heads {
		s.net.Nodes[h].LastCHRound = round
	}
	return heads
}

// reduceRedundancy drops any head that hears a HELLO from a richer head
// within d_c (ties break toward keeping the lower id, so exactly one of
// an equal pair survives).
func (s *Selector) reduceRedundancy(heads []int) []int {
	pts := s.ptsBuf[:0]
	for _, h := range heads {
		pts = append(pts, s.net.Nodes[h].Pos)
	}
	s.ptsBuf = pts
	// The grid is built once with the HELLO radius as its cell edge and
	// re-indexed in place each round; the grid copies pts/ids, so heads
	// can then be filtered in place. Whether a richer head is in range
	// does not depend on the order the grid visits them in, so neither
	// does the kept set.
	if s.grid == nil {
		s.grid = geom.NewGrid(s.net.Box, pts, heads, s.dc)
	} else {
		s.grid.Reindex(pts, heads)
	}
	kept := heads[:0]
	for _, h := range heads {
		hRes := s.net.Nodes[h].Battery.Residual()
		richer := s.grid.Any(s.net.Nodes[h].Pos, s.dc, func(other int) bool {
			oRes := s.net.Nodes[other].Battery.Residual()
			return other != h && (oRes > hRes || (oRes == hRes && other < h))
		})
		if !richer {
			kept = append(kept, h)
		}
	}
	return kept
}

// topUp fills the head set to K using the highest-residual reserve
// candidates, preferring nodes at least d_c away from every existing
// head so coverage stays spread.
func (s *Selector) topUp(heads []int, reserve []candidate) []int {
	if s.inHeads == nil {
		s.inHeads = make([]bool, s.net.N())
	}
	inHeads := s.inHeads
	for _, h := range heads {
		inHeads[h] = true
	}
	// Every id ever set lands in the final head set, so clearing by the
	// returned slice restores the scratch for the next round.
	defer func() {
		for _, h := range heads {
			inHeads[h] = false
		}
	}()
	// Shuffle before the sort so equal-residual candidates are drawn
	// uniformly instead of biasing toward low ids; the stream makes the
	// draw reproducible per seed.
	s.rnd.Shuffle(len(reserve), func(i, j int) { reserve[i], reserve[j] = reserve[j], reserve[i] })
	byResidual(reserve)
	// Pass 1: spread-respecting candidates.
	for _, pass := range []bool{true, false} {
		for _, c := range reserve {
			if len(heads) >= s.cfg.K {
				return heads
			}
			if inHeads[c.id] {
				continue
			}
			if pass && s.tooClose(c.id, heads) {
				continue
			}
			heads = append(heads, c.id)
			inHeads[c.id] = true
		}
	}
	return heads
}

func (s *Selector) tooClose(id int, heads []int) bool {
	p := s.net.Nodes[id].Pos
	for _, h := range heads {
		if p.Dist(s.net.Nodes[h].Pos) < s.dc {
			return true
		}
	}
	return false
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
