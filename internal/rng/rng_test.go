package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSeedsDecorrelate(t *testing.T) {
	a := New(1)
	b := New(2)
	equal := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			equal++
		}
	}
	if equal > 0 {
		t.Fatalf("adjacent seeds produced %d identical draws out of 1000", equal)
	}
}

func TestNamedStreamsIndependentOfOrder(t *testing.T) {
	// Creating named streams in any order must give the same sequences.
	x1 := NewNamed(7, "placement")
	y1 := NewNamed(7, "traffic")
	y2 := NewNamed(7, "traffic")
	x2 := NewNamed(7, "placement")
	for i := 0; i < 100; i++ {
		if x1.Uint64() != x2.Uint64() {
			t.Fatal("placement stream depends on creation order")
		}
		if y1.Uint64() != y2.Uint64() {
			t.Fatal("traffic stream depends on creation order")
		}
	}
}

func TestNamedStreamsDiffer(t *testing.T) {
	a := NewNamed(7, "a")
	b := NewNamed(7, "b")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("differently named streams collided %d times", same)
	}
}

func TestSplitIsOrderInsensitive(t *testing.T) {
	parent1 := New(99)
	c5 := parent1.Split(5)
	c9 := parent1.Split(9)

	parent2 := New(99)
	d9 := parent2.Split(9)
	d5 := parent2.Split(5)

	for i := 0; i < 100; i++ {
		if c5.Uint64() != d5.Uint64() || c9.Uint64() != d9.Uint64() {
			t.Fatal("Split result depends on split order")
		}
	}
}

func TestSplitDoesNotPerturbParent(t *testing.T) {
	a := New(3)
	b := New(3)
	_ = a.Split(0)
	_ = a.Split(1)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split consumed randomness from parent")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(6)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(7)
	seen := make([]bool, 10)
	for i := 0; i < 10000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("Intn(10) never produced %d in 10000 draws", v)
		}
	}
}

func TestIntnOne(t *testing.T) {
	s := New(8)
	for i := 0; i < 100; i++ {
		if v := s.Intn(1); v != 0 {
			t.Fatalf("Intn(1) = %d, want 0", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(9)
	const n, buckets = 600000, 6
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[s.Intn(buckets)]++
	}
	expected := float64(n) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 5 degrees of freedom; 99.9th percentile ~ 20.5.
	if chi2 > 20.5 {
		t.Fatalf("Intn chi-square = %v (counts %v), suggests bias", chi2, counts)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(10)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.ExpFloat64()
		if v < 0 {
			t.Fatalf("exponential variate negative: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(14)
	for trial := 0; trial < 50; trial++ {
		n := 1 + s.Intn(40)
		p := s.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	s := New(15)
	data := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range data {
		sum += v
	}
	s.Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
	got := 0
	for _, v := range data {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed element multiset: %v", data)
	}
}

func TestRangeWithin(t *testing.T) {
	s := New(16)
	for i := 0; i < 10000; i++ {
		v := s.Range(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("Range(-3,7) out of bounds: %v", v)
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(17)
	for i := 0; i < 10000; i++ {
		if v := s.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

// Property: Intn(n) is always in [0, n) for arbitrary positive n.
func TestIntnPropertyQuick(t *testing.T) {
	s := New(18)
	f := func(n uint16, _ uint8) bool {
		bound := int(n%1000) + 1
		v := s.Intn(bound)
		return v >= 0 && v < bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: named streams are reproducible for arbitrary names.
func TestNamedReproducibleQuick(t *testing.T) {
	f := func(seed uint64, name string) bool {
		a := NewNamed(seed, name)
		b := NewNamed(seed, name)
		for i := 0; i < 8; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 0 from the public-domain splitmix64.c.
	want := []uint64{
		0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f,
		0xf88bb8a8724c81ec, 0x1b39896a51a8749b,
	}
	sm := NewSplitMix64(0)
	for i, w := range want {
		if got := sm.Next(); got != w {
			t.Fatalf("SplitMix64 draw %d = %#x, want %#x", i, got, w)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= s.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.Float64()
	}
	_ = sink
}
