package xrand

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("generators with the same seed diverged at step %d", i)
		}
	}
}

func TestNewDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical outputs out of 64", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	a := r.Split(1)
	b := r.Split(2)
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("split streams with different labels look identical")
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 32; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 30 {
		t.Fatalf("zero-seeded generator produced only %d distinct values in 32 draws", len(seen))
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	if err := quick.Check(func(raw uint8) bool {
		n := int(raw%100) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Error(err)
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

func TestIntnUniform(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want about %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(9)
	sum := 0.0
	const draws = 200000
	for i := 0; i < draws; i++ {
		sum += r.Float64()
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want about 0.5", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := New(13)
	for _, rate := range []float64{0.5, 1, 2, 10} {
		sum := 0.0
		const draws = 100000
		for i := 0; i < draws; i++ {
			sum += r.Exp(rate)
		}
		mean := sum / draws
		want := 1 / rate
		if math.Abs(mean-want) > 0.05*want {
			t.Errorf("Exp(%v) mean = %v, want about %v", rate, mean, want)
		}
	}
}

func TestExpNonNegative(t *testing.T) {
	r := New(17)
	if err := quick.Check(func(raw uint16) bool {
		rate := float64(raw%1000)/100 + 0.01
		return r.Exp(rate) >= 0
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestPoissonMeanAndVariance(t *testing.T) {
	r := New(19)
	for _, mean := range []float64{0.5, 3, 20, 100, 1000} {
		const draws = 50000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < draws; i++ {
			v := float64(r.Poisson(mean))
			sum += v
			sumSq += v * v
		}
		m := sum / draws
		variance := sumSq/draws - m*m
		tol := 4 * math.Sqrt(mean/draws) * math.Sqrt(mean) // ~4 sigma on the mean, loose
		if tol < 0.05 {
			tol = 0.05
		}
		if math.Abs(m-mean) > tol+0.02*mean {
			t.Errorf("Poisson(%v) mean = %v", mean, m)
		}
		if math.Abs(variance-mean) > 0.1*mean+0.1 {
			t.Errorf("Poisson(%v) variance = %v, want about %v", mean, variance, mean)
		}
	}
}

func TestPoissonZeroMean(t *testing.T) {
	if got := New(1).Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", got)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(23)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		const draws = 100000
		sum := 0.0
		for i := 0; i < draws; i++ {
			sum += float64(r.Geometric(p))
		}
		mean := sum / draws
		want := (1 - p) / p
		if math.Abs(mean-want) > 0.05*want+0.02 {
			t.Errorf("Geometric(%v) mean = %v, want about %v", p, mean, want)
		}
	}
}

func TestGeometricPOne(t *testing.T) {
	if got := New(1).Geometric(1); got != 0 {
		t.Fatalf("Geometric(1) = %d, want 0", got)
	}
}

func TestGeometricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	New(1).Geometric(0)
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(29)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	freq := float64(hits) / draws
	if math.Abs(freq-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", freq)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(31)
	if err := quick.Check(func(raw uint8) bool {
		n := int(raw % 64)
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(37)
	const n, draws = 5, 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("Perm first element %d appeared %d times, want about %.0f", i, c, want)
		}
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(41)
	if err := quick.Check(func(a, b uint8) bool {
		n := int(a%50) + 1
		k := int(b) % (n + 1)
		s := r.Sample(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestSamplePanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(2,3) did not panic")
		}
	}()
	New(1).Sample(2, 3)
}

func TestSampleZero(t *testing.T) {
	if got := New(1).Sample(5, 0); got != nil {
		t.Fatalf("Sample(5,0) = %v, want nil", got)
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(43)
	p := []int{9, 8, 7, 6, 5}
	r.Shuffle(p)
	sum := 0
	for _, v := range p {
		sum += v
	}
	if sum != 35 {
		t.Fatalf("Shuffle changed the multiset, sum=%d", sum)
	}
}

// TestIntnGolden pins the Intn stream, which drives the mobile walk, the
// gnrho permutations and the v1 kernels: the first draws over a spread of
// bounds, then a digest of a million draws over bounds 1..977 and ten
// thousand near 3·2⁶¹, where a quarter of the draws are rejected, and the
// generator position after them.
func TestIntnGolden(t *testing.T) {
	r := New(20200424)
	bounds := []int{1, 2, 3, 5, 7, 10, 64, 977, 1000, 1 << 20, 3 << 61, 1<<63 - 1}
	want := []int{0, 1, 1, 3, 1, 8, 18, 603, 343, 1042793, 3014897782745345143, 6878856447004269779,
		0, 0, 1, 2, 1, 7, 20, 480, 725, 556701, 6000798356410838060, 5490199554662253824}
	for i, w := range want {
		if got := r.Intn(bounds[i%len(bounds)]); got != w {
			t.Fatalf("draw %d: Intn(%d) = %d, want %d", i, bounds[i%len(bounds)], got, w)
		}
	}
	h := sha256.New()
	var buf [8]byte
	for i := 0; i < 1000000; i++ {
		binary.LittleEndian.PutUint64(buf[:], uint64(r.Intn(1+i%977)))
		h.Write(buf[:])
	}
	for i := 0; i < 10000; i++ {
		binary.LittleEndian.PutUint64(buf[:], uint64(r.Intn(3<<61+i)))
		h.Write(buf[:])
	}
	got := fmt.Sprintf("%x %016x", h.Sum(nil), r.Uint64())
	const digest = "6d162090ec1d69731358cd840b4c1fb97baa958e9040f250f4cbcf1ac39288ac 4e218cfdfbdaee87"
	if got != digest {
		t.Fatalf("Intn stream digest = %s, want %s", got, digest)
	}
}
