// Benchmarks regenerating every table and figure of the paper's
// evaluation (ICPP 2019, §5), plus the analytic results of §3 and the
// ablations DESIGN.md calls out. Each benchmark runs a scaled but
// shape-preserving version of its experiment per iteration and reports
// the headline quantities through b.ReportMetric, so `go test -bench=.`
// doubles as the reproduction dashboard; cmd/qlecfig produces the
// full-scale figures.
//
// Index (see DESIGN.md §4 and EXPERIMENTS.md):
//
//	BenchmarkTable2Defaults          — Table 2 parameter set, end to end
//	BenchmarkFig1NetworkConstruction — Fig. 1 clustered-network structure
//	BenchmarkFig2AgentEnvironmentLoop— Fig. 2 Q-learning interaction loop
//	BenchmarkFig3aPacketDeliveryRate — Fig. 3(a)
//	BenchmarkFig3bTotalEnergy        — Fig. 3(b)
//	BenchmarkFig3cLifespan           — Fig. 3(c)
//	BenchmarkFig4LargeScale          — Fig. 4
//	BenchmarkFig4ScaleN10k           — Fig. 4 pipeline at N=10⁴ (scale rung)
//	BenchmarkTheorem1OptimalK        — Theorem 1 vs brute-force argmin
//	BenchmarkLemma1MeanSqDist        — Lemma 1 Monte-Carlo check
//	BenchmarkRunningTimeOKX          — §4.3 O(kX): X to convergence vs k
//	BenchmarkAblation*               — §3.1 design choices in isolation
package qlec

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"qlec/internal/cluster"
	"qlec/internal/eecp"
	"qlec/internal/energy"
	"qlec/internal/experiment"
	"qlec/internal/geom"
	"qlec/internal/metrics"
	"qlec/internal/network"
	"qlec/internal/qlearn"
	"qlec/internal/rng"
	"qlec/internal/runner"
	"qlec/internal/sim"
)

// benchConfig is the scaled-down paper configuration used inside
// benchmark iterations: same topology and protocol stack, fewer rounds
// and one seed, so an iteration stays in the tens of milliseconds.
func benchConfig() experiment.Config {
	c := experiment.PaperConfig()
	c.Rounds = 5
	c.Seeds = []uint64{1}
	c.LifespanDeathLine = 4.9
	c.LifespanMaxRounds = 300
	return c
}

// BenchmarkTable2Defaults runs QLEC end to end under the exact Table 2
// parameter set (γ=0.95, ε_fs=10 pJ/bit/m², ε_mp=0.0013 pJ/bit/m⁴,
// α₁=β₁=0.05, α₂=β₂=1.05, 50 % compression, N=100, M=200, E0=5 J).
// Every iteration runs seed 1, and the metrics are read once, after the
// timed loop.
func BenchmarkTable2Defaults(b *testing.B) {
	cfg := benchConfig()
	var res *metrics.Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = cfg.RunOne(context.Background(), experiment.QLEC, 4, 1, false); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.PDR(), "pdr")
	b.ReportMetric(float64(res.TotalEnergy), "J")
}

// BenchmarkFig1NetworkConstruction reproduces the structure of Figure 1:
// deploy N nodes in the cube, select heads, assign members to the
// nearest head.
func BenchmarkFig1NetworkConstruction(b *testing.B) {
	var heads int
	for i := 0; i < b.N; i++ {
		w, err := network.Deploy(network.Deployment{N: 100, Side: 200, InitialEnergy: 5},
			rng.New(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		cfg := benchConfig()
		proto, err := cfg.BuildProtocol(experiment.QLEC, w, 20, 0, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		hs := proto.StartRound(0)
		a := cluster.AssignNearest(w, hs)
		heads = len(hs)
		_ = a
	}
	b.ReportMetric(float64(heads), "heads")
}

// BenchmarkFig2AgentEnvironmentLoop exercises the Figure 2 interaction
// loop in isolation: state → action (Decide) → environment outcome
// (Observe) → value update, per member per step.
func BenchmarkFig2AgentEnvironmentLoop(b *testing.B) {
	w, err := network.Deploy(network.Deployment{N: 100, Side: 200, InitialEnergy: 5}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	l, err := qlearn.NewLearner(w, energy.DefaultModel(), 4000, qlearn.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	heads := []int{10, 30, 50, 70, 90}
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node := i % 100
		if node%10 == 0 {
			node++
		}
		to := l.Decide(node, heads)
		l.Observe(node, to, r.Float64() < 0.95)
	}
	b.ReportMetric(float64(l.Updates())/float64(b.N), "updates/op")
}

// fig3Bench runs one (protocol, λ) cell per iteration and reports the
// requested metric. Sub-benchmarks mirror the paper's series. Every
// iteration runs seed 1, so ns/op times the same cell at any b.N, and
// the metric is read once, after the timed loop.
func fig3Bench(b *testing.B, metric string) {
	for _, id := range experiment.PaperProtocols() {
		for _, lambda := range []float64{8, 2} {
			name := fmt.Sprintf("%s/lambda=%g", id, lambda)
			b.Run(name, func(b *testing.B) {
				cfg := benchConfig()
				lifespan := metric == "rounds"
				var res *metrics.Result
				for i := 0; i < b.N; i++ {
					var err error
					if res, err = cfg.RunOne(context.Background(), id, lambda, 1, lifespan); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				var value float64
				switch metric {
				case "pdr":
					value = res.PDR()
				case "J":
					value = float64(res.TotalEnergy)
				case "rounds":
					if res.Lifespan > 0 {
						value = float64(res.Lifespan)
					} else {
						value = float64(res.Rounds)
					}
				}
				b.ReportMetric(value, metric)
			})
		}
	}
}

// BenchmarkFig3aPacketDeliveryRate regenerates Figure 3(a)'s series.
func BenchmarkFig3aPacketDeliveryRate(b *testing.B) { fig3Bench(b, "pdr") }

// BenchmarkFig3bTotalEnergy regenerates Figure 3(b)'s series.
func BenchmarkFig3bTotalEnergy(b *testing.B) { fig3Bench(b, "J") }

// BenchmarkFig3cLifespan regenerates Figure 3(c)'s series.
func BenchmarkFig3cLifespan(b *testing.B) { fig3Bench(b, "rounds") }

// BenchmarkFig4LargeScale regenerates Figure 4 at reduced scale per
// iteration (the full 2896-node run lives in cmd/qlecfig -fig 4) and
// reports the spatial-evenness statistics. Every iteration runs the
// dataset seed 2019, so ns/op does not depend on b.N; B/op tracks the
// per-run state, the learner's included.
func BenchmarkFig4LargeScale(b *testing.B) {
	cfg := experiment.PaperFig4Config()
	cfg.Synth.N = 600
	cfg.Synth.Seed = 2019
	cfg.K = 45
	cfg.Rounds = 3
	var res *experiment.Fig4Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = experiment.RunFig4(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.BinnedCV, "binnedCV")
	b.ReportMetric(res.Gini, "gini")
	b.ReportMetric(res.MoranI, "moranI")
}

// BenchmarkFig4ScaleN10k is the scale rung above Fig. 4: one op is
// RunFig4 on the synthetic set at N=10⁴ with Theorem 1's k for that N
// at the §5.3 geometry, k = 272·(10⁴/2896)^{3/5} ≈ 572, for 2 rounds
// at dataset seed 2019. Besides time and B/op it reports live-MB, the
// heap the finished run's result still holds after a GC; the learner
// rows and engine caches are released with the run.
func BenchmarkFig4ScaleN10k(b *testing.B) {
	cfg := experiment.PaperFig4Config()
	cfg.Synth.N = 10000
	cfg.Synth.Seed = 2019
	cfg.K = 572
	cfg.Rounds = 2
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var res *experiment.Fig4Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = experiment.RunFig4(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	runtime.KeepAlive(res)
	b.ReportMetric(live/(1<<20), "live-MB")
}

// BenchmarkTheorem1OptimalK evaluates the closed form and cross-checks
// it against the brute-force argmin of Eq. (6) every iteration.
func BenchmarkTheorem1OptimalK(b *testing.B) {
	model := energy.DefaultModel()
	d := geom.ExpectedMeanDistCubeToCenter(200)
	var kopt float64
	var argmin int
	for i := 0; i < b.N; i++ {
		kopt = model.OptimalClusterCount(100, 200, d)
		best := math.Inf(1)
		for k := 1; k <= 100; k++ {
			if e := float64(model.RoundEnergyAtK(4000, 100, float64(k), 200, d)); e < best {
				best, argmin = e, k
			}
		}
	}
	if math.Abs(float64(argmin)-kopt) > 1.5 {
		b.Fatalf("closed form %v vs argmin %d", kopt, argmin)
	}
	b.ReportMetric(kopt, "k_opt")
	b.ReportMetric(float64(argmin), "argmin")
}

// BenchmarkLemma1MeanSqDist Monte-Carlo-checks Lemma 1's closed form for
// E[d²_toCH] each iteration: uniform points of the cube around a ball of
// radius d_c, kept when they fall inside the ball.
func BenchmarkLemma1MeanSqDist(b *testing.B) {
	r := rng.New(3)
	const side, k = 200.0, 5
	closed := energy.ExpectedSqDistToCH(side, k)
	dc := geom.CoverageRadius(side, k)
	center := geom.Vec3{X: 100, Y: 100, Z: 100}
	d := geom.Vec3{X: dc, Y: dc, Z: dc}
	cube := geom.AABB{Min: center.Sub(d), Max: center.Add(d)}
	var mc float64
	for i := 0; i < b.N; i++ {
		sum := 0.0
		const samples = 10000
		for s := 0; s < samples; {
			if d2 := cube.SampleUniform(r).DistSq(center); d2 <= dc*dc {
				sum += d2
				s++
			}
		}
		mc = sum / samples
	}
	if math.Abs(mc-closed)/closed > 0.1 {
		b.Fatalf("Monte Carlo %v vs closed form %v", mc, closed)
	}
	b.ReportMetric(mc, "E[d2]_mc")
	b.ReportMetric(closed, "E[d2]_closed")
}

// BenchmarkRunningTimeOKX measures §4.3's X — the number of V updates
// Q-learning needs to converge — as the cluster count k grows, backing
// the O(kX) running-time claim (Theorem 3).
func BenchmarkRunningTimeOKX(b *testing.B) {
	for _, k := range []int{2, 5, 10} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var x uint64
			for i := 0; i < b.N; i++ {
				w, err := network.Deploy(network.Deployment{N: 100, Side: 200, InitialEnergy: 5},
					rng.New(uint64(i+1)))
				if err != nil {
					b.Fatal(err)
				}
				l, err := qlearn.NewLearner(w, energy.DefaultModel(), 4000, qlearn.DefaultParams())
				if err != nil {
					b.Fatal(err)
				}
				heads := make([]int, k)
				for j := range heads {
					heads[j] = j
				}
				for iter := 0; iter < 10000 && !l.Converged(1e-9); iter++ {
					for node := k; node < 100; node++ {
						to := l.Decide(node, heads)
						l.Observe(node, to, true)
					}
					for _, h := range heads {
						l.Observe(h, network.BSID, true)
						l.UpdateHeadValue(h)
					}
				}
				x = l.Updates()
			}
			b.ReportMetric(float64(x), "X_updates")
		})
	}
}

// ablationBench compares full QLEC against one disabled design choice
// under congestion, reporting both variants' PDR and lifespan.
func ablationBench(b *testing.B, variant experiment.ProtocolID) {
	cfg := benchConfig()
	cfg.K = 8 // rerouting needs alternative heads near k_opt; see EXPERIMENTS.md
	var fullPDR, variantPDR float64
	for i := 0; i < b.N; i++ {
		full, err := cfg.RunOne(context.Background(), experiment.QLEC, 1.5, uint64(i+1), false)
		if err != nil {
			b.Fatal(err)
		}
		abl, err := cfg.RunOne(context.Background(), variant, 1.5, uint64(i+1), false)
		if err != nil {
			b.Fatal(err)
		}
		fullPDR = full.PDR()
		variantPDR = abl.PDR()
	}
	b.ReportMetric(fullPDR, "pdr_full")
	b.ReportMetric(variantPDR, "pdr_ablated")
}

// BenchmarkAblationQLearning isolates the Data Transmission Phase:
// QLEC vs nearest-head routing on the same DEEC heads.
func BenchmarkAblationQLearning(b *testing.B) { ablationBench(b, experiment.DEECNearest) }

// BenchmarkAblationEnergyFloor isolates the Eq. (4) improvement.
func BenchmarkAblationEnergyFloor(b *testing.B) { ablationBench(b, experiment.QLECNoFloor) }

// BenchmarkAblationRedundancyReduction isolates Algorithm 3.
func BenchmarkAblationRedundancyReduction(b *testing.B) { ablationBench(b, experiment.QLECNoRR) }

// BenchmarkAblationLEACHBaseline positions classic LEACH under the same
// congestion for reference.
func BenchmarkAblationLEACHBaseline(b *testing.B) { ablationBench(b, experiment.LEACH) }

// BenchmarkHeterogeneousLifespan runs DEEC's original setting — a
// two-tier network with 20 % advanced nodes at 4× energy — and compares
// QLEC's lifespan against energy-blind LEACH. This is the regime the
// DEEC lineage was designed for: the energy-weighted lottery shifts
// head duty onto the advanced nodes, so the first normal node dies much
// later.
func BenchmarkHeterogeneousLifespan(b *testing.B) {
	cfg := benchConfig()
	cfg.AdvancedFraction = 0.2
	cfg.AdvancedFactor = 3
	cfg.LifespanDeathLine = 4.5
	cfg.LifespanMaxRounds = 500
	var qlecLife, leachLife float64
	for i := 0; i < b.N; i++ {
		q, err := cfg.RunOne(context.Background(), experiment.QLEC, 4, uint64(i+1), true)
		if err != nil {
			b.Fatal(err)
		}
		l, err := cfg.RunOne(context.Background(), experiment.LEACH, 4, uint64(i+1), true)
		if err != nil {
			b.Fatal(err)
		}
		qlecLife = lifespanOf(q.Lifespan, q.Rounds)
		leachLife = lifespanOf(l.Lifespan, l.Rounds)
	}
	b.ReportMetric(qlecLife, "rounds_qlec")
	b.ReportMetric(leachLife, "rounds_leach")
}

func lifespanOf(lifespan, rounds int) float64 {
	if lifespan > 0 {
		return float64(lifespan)
	}
	return float64(rounds)
}

// BenchmarkMobilityImpact runs QLEC static vs under random-waypoint
// mobility (the §3.1 motivation for per-round reselection) and under
// per-link shadowing, reporting delivery in each regime.
func BenchmarkMobilityImpact(b *testing.B) {
	run := func(i int, mut func(*sim.Config)) float64 {
		cfg := benchConfig()
		cfg.K = 8
		mut(&cfg.Sim)
		res, err := cfg.RunOne(context.Background(), experiment.QLEC, 4, uint64(i+1), false)
		if err != nil {
			b.Fatal(err)
		}
		return res.PDR()
	}
	var static, mobile, shadowed float64
	for i := 0; i < b.N; i++ {
		static = run(i, func(*sim.Config) {})
		mobile = run(i, func(c *sim.Config) {
			c.MobilitySpeedMin, c.MobilitySpeedMax = 2, 6
		})
		shadowed = run(i, func(c *sim.Config) { c.ShadowSigma = 0.8 })
	}
	b.ReportMetric(static, "pdr_static")
	b.ReportMetric(mobile, "pdr_mobile")
	b.ReportMetric(shadowed, "pdr_shadowed")
}

// BenchmarkCompressionSweep ablates Table 2's 50 % fusion ratio: the
// compression factor directly scales the head→BS burst (the multi-path
// d⁴ leg), so total energy falls as compression tightens.
func BenchmarkCompressionSweep(b *testing.B) {
	for _, ratio := range []float64{0.25, 0.5, 1.0} {
		b.Run(fmt.Sprintf("ratio=%g", ratio), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Sim.Compression = ratio
			var joules float64
			for i := 0; i < b.N; i++ {
				res, err := cfg.RunOne(context.Background(), experiment.QLEC, 4, uint64(i+1), false)
				if err != nil {
					b.Fatal(err)
				}
				joules = float64(res.TotalEnergy)
			}
			b.ReportMetric(joules, "J")
		})
	}
}

// BenchmarkTheorem2EECPApproximation measures how close the protocols'
// nearest-head clustering gets to the NP-Complete EECP optimum
// (Theorem 2) on instances small enough to solve exactly, reporting the
// worst approximation ratio across iterations.
func BenchmarkTheorem2EECPApproximation(b *testing.B) {
	r := rng.New(6)
	worst := 1.0
	for i := 0; i < b.N; i++ {
		pts := geom.Cube(60).SampleUniformN(r, 10)
		resid := make([]energy.Joules, 10)
		for j := range resid {
			resid[j] = energy.Joules(1 + 4*r.Float64())
		}
		in := &eecp.Instance{
			Points: pts, Residual: resid, K: 3,
			F: eecp.EnergyWeighted(energy.DefaultModel(), 4000), Heads: eecp.MedoidHead,
		}
		opt, err := eecp.Solve(in)
		if err != nil {
			b.Fatal(err)
		}
		// Heuristic: highest-residual spread heads + nearest assignment —
		// the DEEC-flavoured move at miniature scale.
		heads := []int{0}
		for len(heads) < 3 {
			bestIdx, bestScore := -1, -1.0
			for j := range pts {
				nearest := math.Inf(1)
				for _, h := range heads {
					nearest = math.Min(nearest, pts[j].DistSq(pts[h]))
				}
				score := nearest * float64(resid[j])
				if score > bestScore {
					bestIdx, bestScore = j, score
				}
			}
			heads = append(heads, bestIdx)
		}
		assign := make([]int, len(pts))
		for j := range pts {
			bestC, bestD := 0, math.Inf(1)
			for c, h := range heads {
				if d := pts[j].DistSq(pts[h]); d < bestD {
					bestC, bestD = c, d
				}
			}
			assign[j] = bestC
		}
		cost, err := eecp.HeuristicCost(in, assign, heads)
		if err != nil {
			b.Fatal(err)
		}
		if opt.Cost > 0 && cost/opt.Cost > worst {
			worst = cost / opt.Cost
		}
	}
	b.ReportMetric(worst, "worst_ratio")
}

// BenchmarkScalability measures simulator throughput as the network
// grows from the paper's 100 nodes to the §5.3 scale, in packets
// simulated per benchmark op (ns/op then gives time per full 3-round
// run; packets/op shows the workload actually processed).
func BenchmarkScalability(b *testing.B) {
	for _, n := range []int{100, 500, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := benchConfig()
			cfg.N = n
			cfg.Side = 200 * math.Cbrt(float64(n)/100) // constant density
			cfg.K = int(math.Max(2, float64(n)/20))
			cfg.Rounds = 3
			var packets int
			for i := 0; i < b.N; i++ {
				res, err := cfg.RunOne(context.Background(), experiment.QLEC, 4, uint64(i+1), false)
				if err != nil {
					b.Fatal(err)
				}
				packets = res.Generated
			}
			b.ReportMetric(float64(packets), "packets/op")
		})
	}
}

// BenchmarkClusteringGainOverDirect quantifies the paper's §1 premise —
// clustering converts global into local communication — as the energy
// ratio between unclustered direct-to-BS transmission and QLEC on a
// field large enough for the d⁴ multi-path law to matter (400 m cube;
// see EXPERIMENTS.md for why the gap shrinks at M=200).
func BenchmarkClusteringGainOverDirect(b *testing.B) {
	cfg := benchConfig()
	cfg.Side = 400
	var direct, clustered float64
	for i := 0; i < b.N; i++ {
		d, err := cfg.RunOne(context.Background(), experiment.Direct, 6, uint64(i+1), false)
		if err != nil {
			b.Fatal(err)
		}
		q, err := cfg.RunOne(context.Background(), experiment.QLEC, 6, uint64(i+1), false)
		if err != nil {
			b.Fatal(err)
		}
		direct = float64(d.TotalEnergy)
		clustered = float64(q.TotalEnergy)
	}
	b.ReportMetric(direct, "J_direct")
	b.ReportMetric(clustered, "J_qlec")
	b.ReportMetric(direct/clustered, "gain")
}

// BenchmarkRunnerOverhead measures the fixed cost runner.Map adds over
// a plain serial loop on trivial jobs — the price every sweep pays for
// ordering, cancellation and progress plumbing. Compare the two
// sub-benchmarks: the delta is the per-job overhead.
func BenchmarkRunnerOverhead(b *testing.B) {
	const jobs = 256
	work := func(i int) int { return i*i + 1 }
	b.Run("serial-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := make([]int, jobs)
			for j := 0; j < jobs; j++ {
				out[j] = work(j)
			}
			if out[3] != 10 {
				b.Fatal("bad result")
			}
		}
	})
	b.Run("runner-map", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			out, err := runner.Map(ctx, jobs, runner.Options{},
				func(ctx context.Context, j int) (int, error) { return work(j), nil })
			if err != nil || out[3] != 10 {
				b.Fatal("bad result")
			}
		}
	})
}

// BenchmarkKSweepParallel runs the same k sweep on the serial reference
// schedule and the parallel pool; the ratio is the orchestration
// speedup on this machine (results are identical either way — see
// TestSweepsParallelMatchSerial).
func BenchmarkKSweepParallel(b *testing.B) {
	ks := []int{3, 5, 8, 11}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := benchConfig()
			cfg.Seeds = []uint64{1, 2}
			cfg.Workers = bc.workers
			for i := 0; i < b.N; i++ {
				if _, err := cfg.RunKSweep(context.Background(), experiment.QLEC, ks, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
