package stats

import "math"

// Accumulator is an online (Welford) mean/variance accumulator for
// streams too large to buffer — per-packet latencies in long simulation
// runs, for example.
type Accumulator struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Observe folds x into the accumulator.
func (a *Accumulator) Observe(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Mean returns the running mean, or 0 before any observation.
func (a *Accumulator) Mean() float64 { return a.mean }

// Summary converts the accumulator into a Summary.
func (a *Accumulator) Summary() Summary {
	s := Summary{N: a.n, Mean: a.mean, Min: a.min, Max: a.max}
	if a.n > 1 {
		s.Variance = a.m2 / float64(a.n-1)
		s.StdDev = math.Sqrt(s.Variance)
	}
	return s
}
