package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestNewDifferentSeeds(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 10; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 8 {
		t.Fatalf("zero-seeded generator looks degenerate: %d distinct in 10 draws", len(seen))
	}
}

func TestInt63nRange(t *testing.T) {
	r := New(3)
	for _, n := range []int64{1, 2, 3, 7, 100, 1 << 40} {
		for i := 0; i < 200; i++ {
			v := r.Int63n(n)
			if v < 0 || v >= n {
				t.Fatalf("Int63n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestInt63nPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	New(1).Int63n(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const trials = 100000
	for i := 0; i < trials; i++ {
		sum += r.Float64()
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(5)
	for i := 0; i < 50; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(6)
	const trials = 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) empirical rate %v", rate)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) len %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestCoinDeterministic(t *testing.T) {
	for i := uint64(0); i < 100; i++ {
		a := Coin(0.5, 1, 2, i)
		b := Coin(0.5, 1, 2, i)
		if a != b {
			t.Fatal("Coin not deterministic")
		}
	}
}

func TestCoinRate(t *testing.T) {
	const trials = 100000
	hits := 0
	for i := uint64(0); i < trials; i++ {
		if Coin(0.25, 99, i) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if math.Abs(rate-0.25) > 0.01 {
		t.Fatalf("Coin(0.25) empirical rate %v", rate)
	}
}

func TestCoinKeySensitivity(t *testing.T) {
	// Different rounds must yield different coin outcomes for some nodes.
	diff := 0
	for i := uint64(0); i < 1000; i++ {
		if Coin(0.5, 1, 0, i) != Coin(0.5, 1, 1, i) {
			diff++
		}
	}
	if diff < 300 {
		t.Fatalf("coins for different rounds suspiciously correlated: %d/1000 differ", diff)
	}
}

func TestUniformRange(t *testing.T) {
	for i := uint64(0); i < 10000; i++ {
		u := Uniform(42, i)
		if u < 0 || u >= 1 {
			t.Fatalf("Uniform out of range: %v", u)
		}
	}
}

func TestExpAtMean(t *testing.T) {
	sum := 0.0
	const trials = 200000
	for i := uint64(0); i < trials; i++ {
		sum += ExpAt(2.0, 7, i)
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("ExpAt(2) mean %v want 0.5", mean)
	}
}

func TestSortableFloat32BitsOrder(t *testing.T) {
	f := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
			return true
		}
		ba, bb := SortableFloat32Bits(a), SortableFloat32Bits(b)
		switch {
		case a < b:
			return ba < bb
		case a > b:
			return ba > bb
		default:
			// +0 and -0 compare equal as floats but may map to
			// different bit patterns; accept either order.
			return a == b
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestSortableFloat32BitsRoundTrip(t *testing.T) {
	f := func(a float32) bool {
		if math.IsNaN(float64(a)) {
			return true
		}
		return FromSortableFloat32Bits(SortableFloat32Bits(a)) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestMix64Distinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 10000; i++ {
		seen[Mix64(1, i)] = true
	}
	if len(seen) != 10000 {
		t.Fatalf("Mix64 collisions: %d distinct of 10000", len(seen))
	}
}

// TestFlipMatchesCoin pins the hoisted flip to Coin bit for bit: the same
// answer for every probability class Coin treats apart (p ≤ 0, NaN, p ≥ 1)
// and for dyadic, tiny and arbitrary p, over random key words.
func TestFlipMatchesCoin(t *testing.T) {
	r := New(44)
	ps := []float64{
		0, -1, math.Inf(-1), math.NaN(), 1, 1.5, math.Inf(1),
		0.5, 0.25, 0.75, 1.0 / 1024, 3.0 / (1 << 53), 1.0 / (1 << 53), // dyadic
		math.SmallestNonzeroFloat64, 1e-300, 1e-17, 0.1 / (1 << 50), // tiny
		math.Nextafter(1, 0), math.Nextafter(0.5, 1), math.Nextafter(0.5, 0),
	}
	for range 64 {
		ps = append(ps, r.Float64())
	}
	for _, p := range ps {
		for range 2000 {
			a, b, w := r.Uint64(), r.Uint64(), r.Uint64()
			if got, want := NewFlip(p, a, b).At(w), Coin(p, a, b, w); got != want {
				t.Fatalf("p=%v words (%#x, %#x, %#x): flip %v, coin %v", p, a, b, w, got, want)
			}
		}
	}
	// p exactly at a word's Uniform value, and one ulp either side of it:
	// Coin is strict, so the flip must say no at the value and above it
	// only yes.
	for range 2000 {
		a, w := r.Uint64(), r.Uint64()
		u := float64(SplitMix64(Mix64(a)^w)>>11) / (1 << 53)
		for _, p := range []float64{u, math.Nextafter(u, 0), math.Nextafter(u, 1)} {
			if got, want := NewFlip(p, a).At(w), Coin(p, a, w); got != want {
				t.Fatalf("p=%v at its word's value %v: flip %v, coin %v", p, u, got, want)
			}
		}
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkCoin(b *testing.B) {
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = Coin(0.5, 1, uint64(i))
	}
	_ = sink
}

func BenchmarkFlip(b *testing.B) {
	var sink bool
	f := NewFlip(0.5, 1)
	for i := 0; i < b.N; i++ {
		sink = f.At(uint64(i))
	}
	_ = sink
}
