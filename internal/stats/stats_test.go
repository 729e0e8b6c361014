package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownSample(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Fatalf("Mean = %v", s.Mean)
	}
	// Sample variance with n-1: Σ(x−5)² = 32, /7.
	if math.Abs(s.Variance-32.0/7) > 1e-12 {
		t.Fatalf("Variance = %v", s.Variance)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 || s.StdDev != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	s := Summarize([]float64{42})
	if s.N != 1 || s.Mean != 42 || s.StdDev != 0 || s.Min != 42 || s.Max != 42 {
		t.Fatalf("single summary = %+v", s)
	}
}

func TestSummarizeNumericallyStable(t *testing.T) {
	// Large offset with tiny variance — the naive Σx² formula fails here.
	base := 1e9
	xs := []float64{base + 1, base + 2, base + 3}
	s := Summarize(xs)
	if math.Abs(s.Variance-1) > 1e-6 {
		t.Fatalf("Variance = %v, want 1 (catastrophic cancellation?)", s.Variance)
	}
}

// TestCI95HalfWidth pins the Student-t critical value at small n
// (t₀.₉₇₅ at df = n-1) and the normal 1.96 above df 30.
func TestCI95HalfWidth(t *testing.T) {
	for _, c := range []struct {
		n int
		t float64
	}{{2, 12.706}, {4, 3.182}, {5, 2.776}, {31, 2.042}, {32, 1.96}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i * i)
		}
		s := Summarize(xs)
		want := c.t * s.StdDev / math.Sqrt(float64(c.n))
		if got := s.CI95HalfWidth(); math.Abs(got-want) > 1e-12 {
			t.Errorf("n=%d: CI95 = %v, want %v", c.n, got, want)
		}
	}
	if Summarize([]float64{1}).CI95HalfWidth() != 0 {
		t.Fatal("CI for n=1 should be 0")
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	cv := CoefficientOfVariation([]float64{10, 10, 10})
	if cv != 0 {
		t.Fatalf("CV of constant sample = %v", cv)
	}
	if !math.IsNaN(CoefficientOfVariation([]float64{-1, 1})) {
		t.Fatal("CV with zero mean should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 4 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Median(xs); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
	// Input must not be reordered.
	if xs[0] != 3 {
		t.Fatal("Quantile mutated its input")
	}
	if got := Quantile([]float64{7}, 0.3); got != 7 {
		t.Fatalf("singleton quantile = %v", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, tc := range []struct {
		xs []float64
		q  float64
	}{{nil, 0.5}, {[]float64{1}, -0.1}, {[]float64{1}, 1.1}, {[]float64{1}, math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Quantile(%v, %v) did not panic", tc.xs, tc.q)
				}
			}()
			Quantile(tc.xs, tc.q)
		}()
	}
}

// Property: Welford mean matches the naive sum for well-scaled data,
// and min <= mean <= max.
func TestSummarizeQuick(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		naive := 0.0
		for i, v := range raw {
			xs[i] = float64(v)
			naive += float64(v)
		}
		s := Summarize(xs)
		if math.Abs(s.Mean-naive/float64(len(xs))) > 1e-9 {
			return false
		}
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile is monotone in q.
func TestQuantileMonotoneQuick(t *testing.T) {
	f := func(raw []int8, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		q1 := float64(a) / 255
		q2 := float64(b) / 255
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return Quantile(xs, q1) <= Quantile(xs, q2)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
