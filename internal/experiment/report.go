package experiment

import (
	"fmt"
	"sort"

	"qlec/internal/plot"
)

// fig3Chart assembles one Figure 3 panel from sweep results using the
// given point accessor. The x-axis is offered load 1/λ (packets per
// second per node), so "more congested" reads left→right as in the
// paper's prose.
func fig3Chart(results []SweepResult, title, ylabel string, value func(SweepPoint) float64) (*plot.Chart, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("experiment: no sweep results")
	}
	// Shared, ascending x-axis of offered load.
	base := results[0].Points
	x := make([]float64, len(base))
	order := make([]int, len(base))
	for i := range base {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return 1/base[order[a]].Lambda < 1/base[order[b]].Lambda
	})
	for i, idx := range order {
		x[i] = 1 / base[idx].Lambda
	}
	chart := &plot.Chart{
		Title:  title,
		XLabel: "offered load 1/λ (pkt/s per node)",
		YLabel: ylabel,
		X:      x,
	}
	for _, sr := range results {
		if len(sr.Points) != len(base) {
			return nil, fmt.Errorf("experiment: protocol %s has %d points, want %d",
				sr.Protocol, len(sr.Points), len(base))
		}
		y := make([]float64, len(order))
		for i, idx := range order {
			y[i] = value(sr.Points[idx])
		}
		chart.Series = append(chart.Series, plot.Series{Name: string(sr.Protocol), Y: y})
	}
	return chart, nil
}

// Fig3aChart builds the packet-delivery-rate panel.
func Fig3aChart(results []SweepResult) (*plot.Chart, error) {
	return fig3Chart(results, "Figure 3(a): Packet Delivery Rate", "PDR",
		func(p SweepPoint) float64 { return p.PDR.Mean })
}

// Fig3bChart builds the total-energy panel.
func Fig3bChart(results []SweepResult) (*plot.Chart, error) {
	return fig3Chart(results, "Figure 3(b): Total Energy Consumption (20 rounds)", "Joules",
		func(p SweepPoint) float64 { return p.EnergyJ.Mean })
}

// Fig3cChart builds the lifespan panel.
func Fig3cChart(results []SweepResult) (*plot.Chart, error) {
	return fig3Chart(results, "Figure 3(c): Network Lifespan", "rounds to first death",
		func(p SweepPoint) float64 { return p.Lifespan.Mean })
}

// LatencyChart builds the transmission-latency series the paper claims
// in §1 but never plots. It uses member→head *access* latency: for
// hold-and-burst protocols end-to-end delay is dominated by the fixed
// round length (fused data leaves at round end per Algorithm 1), so
// access latency is the component the routing algorithm controls and
// the only cross-protocol-comparable one.
func LatencyChart(results []SweepResult) (*plot.Chart, error) {
	return fig3Chart(results, "Supplementary: Mean Transmission (Access) Latency", "seconds",
		func(p SweepPoint) float64 { return p.Access.Mean })
}

// Fig3Table renders the sweep as a paper-style text table with 95 % CI
// half-widths from the seed replication.
func Fig3Table(results []SweepResult) string {
	headers := []string{"protocol", "λ (s)", "PDR", "±", "energy (J)", "±", "lifespan (rounds)", "±", "access lat (s)", "e2e lat (s)"}
	var rows [][]string
	for _, sr := range results {
		for _, p := range sr.Points {
			rows = append(rows, []string{
				string(sr.Protocol),
				fmt.Sprintf("%g", p.Lambda),
				fmt.Sprintf("%.4f", p.PDR.Mean),
				fmt.Sprintf("%.4f", p.PDR.CI95HalfWidth()),
				fmt.Sprintf("%.3f", p.EnergyJ.Mean),
				fmt.Sprintf("%.3f", p.EnergyJ.CI95HalfWidth()),
				fmt.Sprintf("%.1f", p.Lifespan.Mean),
				fmt.Sprintf("%.1f", p.Lifespan.CI95HalfWidth()),
				fmt.Sprintf("%.4f", p.Access.Mean),
				fmt.Sprintf("%.3f", p.Latency.Mean),
			})
		}
	}
	return plot.Table(headers, rows)
}

// KSweepChart builds the k-sensitivity figure (PDR vs cluster count).
func KSweepChart(points []KSweepPoint, protocol ProtocolID, lambda float64) (*plot.Chart, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("experiment: empty k sweep")
	}
	x := make([]float64, len(points))
	pdr := make([]float64, len(points))
	life := make([]float64, len(points))
	for i, p := range points {
		x[i] = float64(p.K)
		pdr[i] = p.PDR.Mean
		life[i] = p.Lifespan.Mean
	}
	// Normalize lifespan into [0,1] so both series share an axis.
	maxLife := 0.0
	for _, l := range life {
		if l > maxLife {
			maxLife = l
		}
	}
	if maxLife > 0 {
		for i := range life {
			life[i] /= maxLife
		}
	}
	return &plot.Chart{
		Title:  fmt.Sprintf("k-sensitivity: %s at λ=%g s (lifespan normalized to max)", protocol, lambda),
		XLabel: "cluster count k",
		YLabel: "PDR / normalized lifespan",
		X:      x,
		Series: []plot.Series{
			{Name: "PDR", Y: pdr},
			{Name: "lifespan (norm.)", Y: life},
		},
	}, nil
}

// KSweepTable renders the sweep as text.
func KSweepTable(points []KSweepPoint) string {
	headers := []string{"k", "PDR", "±", "energy (J)", "±", "lifespan (rounds)", "±"}
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.K),
			fmt.Sprintf("%.4f", p.PDR.Mean),
			fmt.Sprintf("%.4f", p.PDR.CI95HalfWidth()),
			fmt.Sprintf("%.3f", p.EnergyJ.Mean),
			fmt.Sprintf("%.3f", p.EnergyJ.CI95HalfWidth()),
			fmt.Sprintf("%.1f", p.Lifespan.Mean),
			fmt.Sprintf("%.1f", p.Lifespan.CI95HalfWidth()),
		})
	}
	return plot.Table(headers, rows)
}

// NSweepTable renders the scalability sweep as text.
func NSweepTable(points []NSweepPoint) string {
	headers := []string{"N", "k", "PDR", "±", "J/node", "±", "lifespan (rounds)", "±"}
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.N),
			fmt.Sprintf("%d", p.K),
			fmt.Sprintf("%.4f", p.PDR.Mean),
			fmt.Sprintf("%.4f", p.PDR.CI95HalfWidth()),
			fmt.Sprintf("%.4f", p.EnergyPerNode.Mean),
			fmt.Sprintf("%.4f", p.EnergyPerNode.CI95HalfWidth()),
			fmt.Sprintf("%.1f", p.Lifespan.Mean),
			fmt.Sprintf("%.1f", p.Lifespan.CI95HalfWidth()),
		})
	}
	return plot.Table(headers, rows)
}

// Fig4Summary renders the large-scale result's scalar statistics. With
// more than one replicate seed, the evenness rows show mean ± 95% CI
// across replicates instead of the primary run's scalars.
func Fig4Summary(r *Fig4Result) string {
	headers := []string{"metric", "value", "interpretation"}
	cv := fmt.Sprintf("%.4f", r.BinnedCV)
	gini := fmt.Sprintf("%.4f", r.Gini)
	moran := fmt.Sprintf("%.4f", r.MoranI)
	if r.BinnedCVStats.N > 1 {
		cv = fmt.Sprintf("%.4f ±%.4f (n=%d)", r.BinnedCVStats.Mean, r.BinnedCVStats.CI95HalfWidth(), r.BinnedCVStats.N)
		gini = fmt.Sprintf("%.4f ±%.4f (n=%d)", r.GiniStats.Mean, r.GiniStats.CI95HalfWidth(), r.GiniStats.N)
		moran = fmt.Sprintf("%.4f ±%.4f (n=%d)", r.MoranIStats.Mean, r.MoranIStats.CI95HalfWidth(), r.MoranIStats.N)
	}
	moranNote := "≈0 = no hot spots"
	if r.MoranIStats.N == 0 {
		moran, moranNote = "undefined", "constant field or no pair within radius"
	}
	rows := [][]string{
		{"nodes", fmt.Sprintf("%d", r.Net.N()), "paper: 2896 (China subset)"},
		{"clusters k", fmt.Sprintf("%d", r.K), "paper: k_opt = 272"},
		{"PDR", fmt.Sprintf("%.4f", r.Run.PDR()), "delivery over the run"},
		{"total energy (J)", fmt.Sprintf("%.2f", float64(r.Run.TotalEnergy)), ""},
		{"consumption CV (binned)", cv, "lower = spatially even"},
		{"consumption Gini", gini, "0 = perfectly even"},
		{"Moran's I", moran, moranNote},
	}
	return plot.Table(headers, rows)
}

// Fig4Heatmap builds the consumption-rate map (the paper's Figure 4
// scatter, projected for terminals).
func Fig4Heatmap(r *Fig4Result, cols, rows int) *plot.Heatmap {
	return &plot.Heatmap{
		Title:  "Figure 4: energy consumption rate (consumed/initial) after QLEC clustering",
		Box:    r.Net.Box,
		Cols:   cols,
		Rows:   rows,
		Points: r.Field.Points,
		Values: r.Field.Values,
	}
}
