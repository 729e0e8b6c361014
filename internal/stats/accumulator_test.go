package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAccumulatorMatchesSummarize(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	var a Accumulator
	for _, x := range xs {
		a.Observe(x)
	}
	want := Summarize(xs)
	got := a.Summary()
	if got.N != want.N || math.Abs(got.Mean-want.Mean) > 1e-12 ||
		math.Abs(got.Variance-want.Variance) > 1e-12 ||
		got.Min != want.Min || got.Max != want.Max {
		t.Fatalf("accumulator %+v vs summarize %+v", got, want)
	}
	if got.N != 8 || got.Min != 1 || got.Max != 9 {
		t.Fatalf("summary: n=%d min=%v max=%v", got.N, got.Min, got.Max)
	}
	if math.Abs(got.StdDev-want.StdDev) > 1e-12 {
		t.Fatalf("stddev %v vs %v", got.StdDev, want.StdDev)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if s := a.Summary(); a.Mean() != 0 || s != (Summary{}) {
		t.Fatalf("zero-value accumulator not neutral: mean %v, summary %+v", a.Mean(), s)
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Observe(-7)
	if s := a.Summary(); a.Mean() != -7 || s.Min != -7 || s.Max != -7 || s.StdDev != 0 {
		t.Fatalf("single observation: mean=%v summary %+v", a.Mean(), s)
	}
}

// Property: accumulator agrees with batch Summarize on arbitrary input.
func TestAccumulatorQuick(t *testing.T) {
	f := func(raw []int16) bool {
		var a Accumulator
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			a.Observe(xs[i])
		}
		want := Summarize(xs)
		got := a.Summary()
		if got.N != want.N {
			return false
		}
		if got.N == 0 {
			return true
		}
		return math.Abs(got.Mean-want.Mean) < 1e-9 &&
			math.Abs(got.Variance-want.Variance) < 1e-6 &&
			got.Min == want.Min && got.Max == want.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
