// Package stats supplies the numeric tooling the QLEC reproduction needs:
// descriptive statistics with confidence intervals for multi-seed
// experiment replication, and spatial-uniformity measures (coefficient of variation over bins, Moran's I) used to back
// Figure 4's claim that QLEC spreads energy consumption evenly.
//
// The reproduction band for this paper flags "weak numeric/plotting
// tooling" as the main risk, so this package is deliberately
// self-contained and heavily tested.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased (n-1) sample variance
	StdDev   float64
	Min, Max float64
}

// Summarize computes descriptive statistics using Welford's online
// algorithm (numerically stable for long accumulations). An empty input
// yields a zero Summary.
func Summarize(xs []float64) Summary {
	s := Summary{Min: math.Inf(1), Max: math.Inf(-1)}
	var m, m2 float64
	for i, x := range xs {
		s.N = i + 1
		delta := x - m
		m += delta / float64(s.N)
		m2 += delta * (x - m)
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	if s.N == 0 {
		return Summary{}
	}
	s.Mean = m
	if s.N > 1 {
		s.Variance = m2 / float64(s.N-1)
		s.StdDev = math.Sqrt(s.Variance)
	}
	return s
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 { return Summarize(xs).Mean }

// CoefficientOfVariation returns stddev/mean. It returns NaN when the
// mean is zero (undefined), matching statistical convention.
func CoefficientOfVariation(xs []float64) float64 {
	s := Summarize(xs)
	if s.Mean == 0 {
		return math.NaN()
	}
	return s.StdDev / s.Mean
}

// CI95HalfWidth returns the half-width of a Student-t 95 % confidence
// interval for the mean, t₀.₉₇₅,ₙ₋₁·s/√n. It returns 0 for n < 2.
func (s Summary) CI95HalfWidth() float64 {
	if s.N < 2 {
		return 0
	}
	return tQuantile975(s.N-1) * s.StdDev / math.Sqrt(float64(s.N))
}

// t975 holds Student's t two-sided 95 % critical values (the 0.975
// quantile) for df = 1..30.
var t975 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tQuantile975 returns t₀.₉₇₅ at df degrees of freedom (df ≥ 1): the
// table value up to df 30, the normal 1.96 above it.
func tQuantile975(df int) float64 {
	if df <= len(t975) {
		return t975[df-1]
	}
	return 1.96
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (type-7, the R/NumPy default).
// It panics on an empty sample or q outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("stats: Quantile q=%v outside [0,1]", q))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5-quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }
