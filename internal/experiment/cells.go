package experiment

import (
	"context"
	"fmt"

	"qlec/internal/stats"
)

// CellSpec names one independently executable cell of a sweep: a fully
// derived configuration (per-k, per-N scaling already applied) plus the
// (protocol, λ, seed) coordinates. A sweep is a flat ordered list of
// cells plus a deterministic assembly step — RunFig3, RunKSweep and
// RunNSweep are exactly "build specs → run each → assemble", so any
// executor that runs the same specs and feeds the outcomes to the same
// Assemble* function reproduces the sweep result byte-for-byte,
// regardless of where or in what order the cells ran.
// This is the contract the qlecd fleet path relies on (DESIGN.md §14).
type CellSpec struct {
	Protocol ProtocolID
	Lambda   float64
	Seed     uint64
	Config   Config
}

// Run executes the cell's replication pair. The embedded configuration
// was validated when the spec was built; re-validate defensively when
// the spec crossed a process boundary (the service layer does).
func (s CellSpec) Run(ctx context.Context) (CellOutcome, error) {
	return s.Config.runCell(ctx, s.Protocol, s.Lambda, s.Seed)
}

// Fig3Cells derives the ordered cell list of RunFig3: protocol-major,
// then λ, then seed — the index order AssembleFig3 consumes.
func (c Config) Fig3Cells(ids []ProtocolID) ([]CellSpec, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	for _, id := range ids {
		if err := c.ValidateProtocol(id); err != nil {
			return nil, err
		}
	}
	specs := make([]CellSpec, 0, len(ids)*len(c.Lambdas)*len(c.Seeds))
	for _, id := range ids {
		for _, lambda := range c.Lambdas {
			for _, seed := range c.Seeds {
				specs = append(specs, CellSpec{Protocol: id, Lambda: lambda, Seed: seed, Config: c})
			}
		}
	}
	return specs, nil
}

// AssembleFig3 folds cell outcomes (in Fig3Cells order) into the
// per-protocol λ series of RunFig3. The aggregation order is fixed, so
// identical outcomes produce bit-identical summaries.
func AssembleFig3(ids []ProtocolID, lambdas []float64, seeds []uint64, cells []CellOutcome) ([]SweepResult, error) {
	if want := len(ids) * len(lambdas) * len(seeds); len(cells) != want {
		return nil, fmt.Errorf("experiment: fig3 assembly wants %d cells, got %d", want, len(cells))
	}
	var out []SweepResult
	for pi, id := range ids {
		sr := SweepResult{Protocol: id}
		for li, lambda := range lambdas {
			var pdrs, energies, lifespans, latencies, accesses []float64
			for si := range seeds {
				cell := cells[(pi*len(lambdas)+li)*len(seeds)+si]
				pdrs = append(pdrs, cell.PDR)
				energies = append(energies, cell.EnergyJ)
				latencies = append(latencies, cell.Latency)
				accesses = append(accesses, cell.Access)
				lifespans = append(lifespans, cell.Lifespan)
			}
			sr.Points = append(sr.Points, SweepPoint{
				Lambda:   lambda,
				PDR:      stats.Summarize(pdrs),
				EnergyJ:  stats.Summarize(energies),
				Lifespan: stats.Summarize(lifespans),
				Latency:  stats.Summarize(latencies),
				Access:   stats.Summarize(accesses),
			})
		}
		out = append(out, sr)
	}
	return out, nil
}

// KSweepCells derives the ordered cell list of RunKSweep: k-major, then
// seed, each cell carrying the per-k configuration (validated once up
// front, so an invalid k is reported immediately).
func (c Config) KSweepCells(id ProtocolID, ks []int, lambda float64) ([]CellSpec, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := c.ValidateProtocol(id); err != nil {
		return nil, err
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("experiment: no k values")
	}
	specs := make([]CellSpec, 0, len(ks)*len(c.Seeds))
	for _, k := range ks {
		kcfg := c
		kcfg.K = k
		if err := kcfg.Validate(); err != nil {
			return nil, fmt.Errorf("experiment: k=%d: %w", k, err)
		}
		for _, seed := range c.Seeds {
			specs = append(specs, CellSpec{Protocol: id, Lambda: lambda, Seed: seed, Config: kcfg})
		}
	}
	return specs, nil
}

// AssembleKSweep folds cell outcomes (in KSweepCells order) into
// RunKSweep's per-k points.
func AssembleKSweep(ks []int, seeds []uint64, cells []CellOutcome) ([]KSweepPoint, error) {
	if want := len(ks) * len(seeds); len(cells) != want {
		return nil, fmt.Errorf("experiment: ksweep assembly wants %d cells, got %d", want, len(cells))
	}
	var out []KSweepPoint
	for ki, k := range ks {
		var pdrs, energies, lifespans []float64
		for si := range seeds {
			cell := cells[ki*len(seeds)+si]
			pdrs = append(pdrs, cell.PDR)
			energies = append(energies, cell.EnergyJ)
			lifespans = append(lifespans, cell.Lifespan)
		}
		out = append(out, KSweepPoint{
			K:        k,
			PDR:      stats.Summarize(pdrs),
			EnergyJ:  stats.Summarize(energies),
			Lifespan: stats.Summarize(lifespans),
		})
	}
	return out, nil
}

// NSweepCells derives the ordered cell list of RunNSweep: N-major, then
// seed. Each cell's configuration carries the constant-density scaling
// of scaledTo (Side ∝ ∛N, k proportional to N).
func (c Config) NSweepCells(id ProtocolID, ns []int, lambda float64) ([]CellSpec, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(ns) == 0 {
		return nil, fmt.Errorf("experiment: no N values")
	}
	specs := make([]CellSpec, 0, len(ns)*len(c.Seeds))
	for _, n := range ns {
		ncfg, err := c.scaledTo(n)
		if err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		if err := ncfg.Validate(); err != nil {
			return nil, fmt.Errorf("experiment: N=%d: %w", n, err)
		}
		if err := ncfg.ValidateProtocol(id); err != nil {
			return nil, err
		}
		for _, seed := range c.Seeds {
			specs = append(specs, CellSpec{Protocol: id, Lambda: lambda, Seed: seed, Config: ncfg})
		}
	}
	return specs, nil
}

// AssembleNSweep folds cell outcomes (in NSweepCells order) into
// RunNSweep's per-N points; specs supplies the derived per-N k values.
func AssembleNSweep(ns []int, seeds []uint64, specs []CellSpec, cells []CellOutcome) ([]NSweepPoint, error) {
	want := len(ns) * len(seeds)
	if len(cells) != want || len(specs) != want {
		return nil, fmt.Errorf("experiment: nsweep assembly wants %d specs+cells, got %d specs, %d cells",
			want, len(specs), len(cells))
	}
	var out []NSweepPoint
	for ni, n := range ns {
		var pdrs, perNode, lifespans []float64
		for si := range seeds {
			cell := cells[ni*len(seeds)+si]
			pdrs = append(pdrs, cell.PDR)
			perNode = append(perNode, cell.EnergyJ/float64(n))
			lifespans = append(lifespans, cell.Lifespan)
		}
		out = append(out, NSweepPoint{
			N: n, K: specs[ni*len(seeds)].Config.K,
			PDR:           stats.Summarize(pdrs),
			EnergyPerNode: stats.Summarize(perNode),
			Lifespan:      stats.Summarize(lifespans),
		})
	}
	return out, nil
}
