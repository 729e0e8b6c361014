package experiment

// The protocol tournament: every registered protocol, one shared
// engine, a scenario matrix (traffic λ × network size N × heterogeneity
// tiers), and a ranked report. This is what the plugin registry buys —
// a new Register call is automatically a tournament entrant, so an RL
// controller tournament is a registration away.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"qlec/internal/audit"
	"qlec/internal/runner"
	"qlec/internal/sim"
	"qlec/internal/stats"
)

// TierScenario is one heterogeneity setting of the tournament matrix.
type TierScenario struct {
	// Name labels the scenario in reports ("homogeneous", "3-tier").
	Name string
	// Advanced/Super tier provisioning; see network.Deployment.
	AdvancedFraction float64
	AdvancedFactor   float64
	SuperFraction    float64
	SuperFactor      float64
}

// DefaultTiers returns the tournament's standard heterogeneity axis:
// the paper's homogeneous §5.1 deployment plus a three-tier T-DEEC
// setting (20% advanced at 2·E0, 10% super at 3·E0).
func DefaultTiers() []TierScenario {
	return []TierScenario{
		{Name: "homogeneous"},
		{Name: "3-tier", AdvancedFraction: 0.2, AdvancedFactor: 1, SuperFraction: 0.1, SuperFactor: 2},
	}
}

// TournamentConfig parameterizes RunTournament. Zero-valued axes fall
// back to defaults derived from Base and the registry.
type TournamentConfig struct {
	// Base supplies the deployment, engine and replication settings.
	Base Config
	// Protocols is the field; empty means every registered non-ablation
	// protocol (CompetitorProtocols). Aliases are canonicalized.
	Protocols []ProtocolID
	// Lambdas is the traffic axis; empty means Base.Lambdas.
	Lambdas []float64
	// Ns is the network-size axis; empty means {Base.N}. Sizes scale
	// the cube side at constant density and k proportionally, like
	// RunNSweep.
	Ns []int
	// Tiers is the heterogeneity axis; empty means DefaultTiers.
	Tiers []TierScenario
	// SkipEnergyBudget drops the audited per-protocol energy-budget leg
	// (one extra instrumented run per protocol).
	SkipEnergyBudget bool
}

// TournamentCell is one (protocol, tier, N, λ, seed) measurement.
type TournamentCell struct {
	Protocol       ProtocolID `json:"protocol"`
	Tier           string     `json:"tier"`
	N              int        `json:"n"`
	Lambda         float64    `json:"lambda"`
	Seed           uint64     `json:"seed"`
	PDR            float64    `json:"pdr"`
	EnergyPerNodeJ float64    `json:"energyPerNodeJ"`
	// FND/HND are the first-node-death and half-nodes-death rounds from
	// the endurance run, censored at its round cap.
	FND float64 `json:"fnd"`
	HND float64 `json:"hnd"`
}

// Standing is one protocol's aggregate over the whole matrix.
type Standing struct {
	Rank     int        `json:"rank"`
	Protocol ProtocolID `json:"protocol"`
	// Score is the mean of the protocol's per-measure ranks (PDR, energy
	// per node, FND, HND) — lower is better.
	Score          float64       `json:"score"`
	PDR            stats.Summary `json:"pdr"`
	EnergyPerNodeJ stats.Summary `json:"energyPerNodeJ"`
	FND            stats.Summary `json:"fnd"`
	HND            stats.Summary `json:"hnd"`
	// Budget is the audited energy breakdown from the flight-recorder
	// leg (nil with SkipEnergyBudget).
	Budget *audit.Report `json:"budget,omitempty"`
}

// TournamentResult is the full tournament output.
type TournamentResult struct {
	// Standings is ranked best-first.
	Standings []Standing       `json:"standings"`
	Cells     []TournamentCell `json:"cells"`
	Lambdas   []float64        `json:"lambdas"`
	Ns        []int            `json:"ns"`
	Tiers     []TierScenario   `json:"tiers"`
	Seeds     []uint64         `json:"seeds"`
}

// RunTournament runs the scenario matrix for every listed protocol and
// ranks the field. Each cell runs one fixed-round leg (PDR, energy) and
// one endurance leg (death line active, no stop-on-death, cancelled
// early once half the nodes die) for FND/HND. Cells fan out through
// runner.Map under Base.Workers/Progress; cancelling ctx aborts.
func RunTournament(ctx context.Context, tc TournamentConfig) (*TournamentResult, error) {
	protocols := tc.Protocols
	if len(protocols) == 0 {
		protocols = CompetitorProtocols()
	}
	canon := make([]ProtocolID, len(protocols))
	for i, id := range protocols {
		if !KnownProtocol(id) {
			return nil, fmt.Errorf("experiment: tournament: unknown protocol %q", id)
		}
		canon[i] = CanonicalProtocol(id)
	}
	protocols = canon
	lambdas := tc.Lambdas
	if len(lambdas) == 0 {
		lambdas = tc.Base.Lambdas
	}
	ns := tc.Ns
	if len(ns) == 0 {
		ns = []int{tc.Base.N}
	}
	tiers := tc.Tiers
	if len(tiers) == 0 {
		tiers = DefaultTiers()
	}
	base := tc.Base
	base.Lambdas = lambdas
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if base.Topology != nil {
		return nil, fmt.Errorf("experiment: tournament: custom topologies not supported (the tier axis owns the deployment)")
	}

	// Derive one validated config per (tier, N) scenario up front.
	type scenario struct {
		tier string
		cfg  Config
	}
	scenarios := make([]scenario, 0, len(tiers)*len(ns))
	for _, tier := range tiers {
		for _, n := range ns {
			cfg, err := base.scaledTo(n)
			if err != nil {
				return nil, fmt.Errorf("experiment: tournament: %w", err)
			}
			cfg.AdvancedFraction = tier.AdvancedFraction
			cfg.AdvancedFactor = tier.AdvancedFactor
			cfg.SuperFraction = tier.SuperFraction
			cfg.SuperFactor = tier.SuperFactor
			if err := cfg.Validate(); err != nil {
				return nil, fmt.Errorf("experiment: tournament tier %q N=%d: %w", tier.Name, n, err)
			}
			scenarios = append(scenarios, scenario{tier.Name, cfg})
		}
	}

	opts := runner.Options{Workers: tc.Base.Workers, Progress: tc.Base.Progress}
	type job struct {
		proto ProtocolID
		scen  int
		lam   float64
		seed  uint64
	}
	var jobs []job
	for _, id := range protocols {
		for si := range scenarios {
			for _, lam := range lambdas {
				for _, seed := range base.Seeds {
					jobs = append(jobs, job{id, si, lam, seed})
				}
			}
		}
	}
	cells, err := runner.Map(ctx, len(jobs), opts,
		func(ctx context.Context, i int) (TournamentCell, error) {
			j := jobs[i]
			sc := scenarios[j.scen]
			cell, err := sc.cfg.runTournamentCell(ctx, j.proto, j.lam, j.seed)
			if err != nil {
				return TournamentCell{}, fmt.Errorf("%s tier=%s N=%d λ=%v seed=%d: %w",
					j.proto, sc.tier, sc.cfg.N, j.lam, j.seed, err)
			}
			cell.Tier = sc.tier
			return cell, nil
		})
	if err != nil {
		return nil, err
	}

	res := &TournamentResult{
		Cells:   cells,
		Lambdas: lambdas,
		Ns:      ns,
		Seeds:   base.Seeds,
		Tiers:   tiers,
	}
	res.Standings = rankStandings(protocols, cells)

	if !tc.SkipEnergyBudget {
		// Flight-recorder leg: one audited fixed-round run per protocol
		// on the primary scenario, for the energy-budget columns.
		for i := range res.Standings {
			rec := audit.New(audit.Options{})
			acfg := scenarios[0].cfg
			acfg.Audit = rec
			if _, err := acfg.runOneValidated(ctx, res.Standings[i].Protocol, lambdas[0], base.Seeds[0], false); err != nil {
				return nil, fmt.Errorf("experiment: tournament audit leg %s: %w", res.Standings[i].Protocol, err)
			}
			rep := rec.Report()
			// The ranked table needs totals, not the per-node ledger.
			rep.Nodes = nil
			rep.Violations = nil
			rep.Anomalies = nil
			res.Standings[i].Budget = &rep
		}
	}
	return res, nil
}

// scaledTo derives the constant-density scaling of the configuration to
// n nodes (side grows with ∛, k keeps the nodes-per-cluster ratio),
// mirroring RunNSweep's axis.
func (c Config) scaledTo(n int) (Config, error) {
	if n <= 0 {
		return Config{}, fmt.Errorf("N=%d not positive", n)
	}
	out := c
	if n == c.N {
		return out, nil
	}
	out.N = n
	out.Side = c.Side * math.Cbrt(float64(n)/float64(c.N))
	k := int(math.Round(float64(c.K) * float64(n) / float64(c.N)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	out.K = k
	return out, nil
}

// runTournamentCell executes one cell's two legs.
func (c Config) runTournamentCell(ctx context.Context, id ProtocolID, lambda float64, seed uint64) (TournamentCell, error) {
	// Hooks are single-run, single-owner; cells run concurrently.
	c.Tracer = nil
	c.Observer = nil
	c.Audit = nil
	c.Progress = nil

	cell := TournamentCell{Protocol: id, N: c.N, Lambda: lambda, Seed: seed}
	res, err := c.runOneValidated(ctx, id, lambda, seed, false)
	if err != nil {
		return TournamentCell{}, err
	}
	cell.PDR = res.PDR()
	cell.EnergyPerNodeJ = float64(res.TotalEnergy) / float64(c.N)

	// Endurance leg: death line active but no stop-on-death, so the
	// alive trajectory continues past first death; an observer cancels
	// once half the field is gone (everything after that is decided).
	ec := c
	ec.enduranceNoStop = true
	ectx, cancel := context.WithCancel(ctx)
	defer cancel()
	half := c.N / 2
	ec.Observer = func(snap sim.RoundSnapshot) {
		if snap.Alive <= half {
			cancel()
		}
	}
	eres, err := ec.runOneValidated(ectx, id, lambda, seed, true)
	if err != nil && !(errors.Is(err, context.Canceled) && ctx.Err() == nil) {
		return TournamentCell{}, err
	}
	if ctx.Err() != nil {
		return TournamentCell{}, ctx.Err()
	}
	if eres == nil {
		return TournamentCell{}, fmt.Errorf("endurance run returned no result")
	}
	cell.FND = float64(eres.Lifespan)
	if eres.Lifespan == 0 { // survived the cap
		cell.FND = float64(eres.Rounds)
	}
	cell.HND = float64(eres.Rounds) // censored default
	for i, rs := range eres.PerRound {
		if rs.AliveAtEnd <= half {
			cell.HND = float64(i + 1)
			break
		}
	}
	return cell, nil
}

// rankStandings aggregates cells per protocol and ranks the field by
// mean per-measure rank. Deterministic: ties share the better rank, and
// the final sort tie-breaks on the input protocol order.
func rankStandings(protocols []ProtocolID, cells []TournamentCell) []Standing {
	byProto := make(map[ProtocolID]*struct {
		pdr, energy, fnd, hnd []float64
	}, len(protocols))
	for _, id := range protocols {
		byProto[id] = &struct{ pdr, energy, fnd, hnd []float64 }{}
	}
	for _, cell := range cells {
		agg := byProto[cell.Protocol]
		agg.pdr = append(agg.pdr, cell.PDR)
		agg.energy = append(agg.energy, cell.EnergyPerNodeJ)
		agg.fnd = append(agg.fnd, cell.FND)
		agg.hnd = append(agg.hnd, cell.HND)
	}
	standings := make([]Standing, len(protocols))
	for i, id := range protocols {
		agg := byProto[id]
		standings[i] = Standing{
			Protocol:       id,
			PDR:            stats.Summarize(agg.pdr),
			EnergyPerNodeJ: stats.Summarize(agg.energy),
			FND:            stats.Summarize(agg.fnd),
			HND:            stats.Summarize(agg.hnd),
		}
	}
	// Per-measure ranks: 1 = best; equal means share the better rank.
	rank := func(value func(Standing) float64, higherBetter bool) []float64 {
		ranks := make([]float64, len(standings))
		for i := range standings {
			r := 1
			for j := range standings {
				vi, vj := value(standings[i]), value(standings[j])
				if (higherBetter && vj > vi) || (!higherBetter && vj < vi) {
					r++
				}
			}
			ranks[i] = float64(r)
		}
		return ranks
	}
	pdrR := rank(func(s Standing) float64 { return s.PDR.Mean }, true)
	engR := rank(func(s Standing) float64 { return s.EnergyPerNodeJ.Mean }, false)
	fndR := rank(func(s Standing) float64 { return s.FND.Mean }, true)
	hndR := rank(func(s Standing) float64 { return s.HND.Mean }, true)
	for i := range standings {
		standings[i].Score = (pdrR[i] + engR[i] + fndR[i] + hndR[i]) / 4
	}
	order := make([]int, len(standings))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return standings[order[a]].Score < standings[order[b]].Score
	})
	out := make([]Standing, len(standings))
	for pos, idx := range order {
		out[pos] = standings[idx]
		out[pos].Rank = pos + 1
	}
	return out
}

// FormatTournament renders the ranked report as a fixed-width table.
func FormatTournament(res *TournamentResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "tournament: %d protocols × %d λ × %d sizes × %d tiers × %d seeds = %d cells\n",
		len(res.Standings), len(res.Lambdas), len(res.Ns), len(res.Tiers), len(res.Seeds), len(res.Cells))
	var tierNames []string
	for _, t := range res.Tiers {
		tierNames = append(tierNames, t.Name)
	}
	fmt.Fprintf(&b, "axes: λ=%v N=%v tiers=%v seeds=%v\n\n", res.Lambdas, res.Ns, tierNames, res.Seeds)
	hasBudget := false
	for _, s := range res.Standings {
		if s.Budget != nil {
			hasBudget = true
			break
		}
	}
	header := fmt.Sprintf("%-4s %-14s %7s %8s %10s %8s %8s", "rank", "protocol", "score", "PDR", "J/node", "FND", "HND")
	if hasBudget {
		header += fmt.Sprintf(" %10s %8s %6s", "auditJ", "txJ", "viol")
	}
	b.WriteString(header + "\n")
	b.WriteString(strings.Repeat("-", len(header)) + "\n")
	for _, s := range res.Standings {
		row := fmt.Sprintf("%-4d %-14s %7.2f %8.3f %10.3f %8.1f %8.1f",
			s.Rank, s.Protocol, s.Score, s.PDR.Mean, s.EnergyPerNodeJ.Mean, s.FND.Mean, s.HND.Mean)
		if hasBudget && s.Budget != nil {
			row += fmt.Sprintf(" %10.3f %8.3f %6d",
				float64(s.Budget.TotalJ), float64(s.Budget.TxJ), s.Budget.ViolationCount)
		}
		b.WriteString(row + "\n")
	}
	return b.String()
}
