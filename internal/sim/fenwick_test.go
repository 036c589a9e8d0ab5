package sim

import (
	"math"
	"testing"

	"dynamicrumor/internal/xrand"
)

// newFenwick returns an empty tree over n indices.
func newFenwick(n int) *fenwick {
	return &fenwick{tree: make([]float64, n+1), weight: make([]float64, n)}
}

// Len returns the number of indices.
func (f *fenwick) Len() int { return len(f.weight) }

// Get returns the weight of index i.
func (f *fenwick) Get(i int) float64 { return f.weight[i] }

func TestFenwickTotalAndGet(t *testing.T) {
	f := newFenwick(5)
	f.Set(0, 1)
	f.Set(2, 2.5)
	f.Set(4, 0.5)
	if got := f.Total(); math.Abs(got-4) > 1e-12 {
		t.Fatalf("Total = %v, want 4", got)
	}
	if f.Get(2) != 2.5 || f.Get(1) != 0 {
		t.Fatal("Get wrong")
	}
	f.Set(2, 1) // decrease
	if got := f.Total(); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("Total after decrease = %v, want 2.5", got)
	}
	if f.Len() != 5 {
		t.Fatalf("Len = %d", f.Len())
	}
}

func TestFenwickNegativeClamped(t *testing.T) {
	f := newFenwick(3)
	f.Set(1, -5)
	if f.Get(1) != 0 || f.Total() != 0 {
		t.Fatal("negative weight should clamp to 0")
	}
}

func TestFenwickSampleBoundaries(t *testing.T) {
	f := newFenwick(4)
	f.Set(1, 2)
	f.Set(3, 3)
	cases := []struct {
		target float64
		want   int
	}{
		{0, 1}, {1.9, 1}, {2.0, 3}, {4.9, 3}, {-1, 1},
	}
	for _, c := range cases {
		if got := f.Sample(c.target); got != c.want {
			t.Errorf("Sample(%v) = %d, want %d", c.target, got, c.want)
		}
	}
}

func TestFenwickSampleAllZero(t *testing.T) {
	f := newFenwick(3)
	if got := f.Sample(0); got != -1 {
		t.Fatalf("Sample over empty weights = %d, want -1", got)
	}
}

func TestFenwickSampleProportional(t *testing.T) {
	rng := xrand.New(7)
	f := newFenwick(3)
	f.Set(0, 1)
	f.Set(1, 2)
	f.Set(2, 7)
	counts := make([]int, 3)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[f.Sample(rng.Float64()*f.Total())]++
	}
	wants := []float64{0.1, 0.2, 0.7}
	for i, w := range wants {
		got := float64(counts[i]) / draws
		if math.Abs(got-w) > 0.01 {
			t.Errorf("index %d frequency %v, want %v", i, got, w)
		}
	}
}

func TestFenwickReset(t *testing.T) {
	f := newFenwick(4)
	f.Set(2, 5)
	f.Reset()
	if f.Total() != 0 || f.Get(2) != 0 {
		t.Fatal("Reset did not clear weights")
	}
}

func TestFenwickRandomizedAgainstNaive(t *testing.T) {
	rng := xrand.New(11)
	const n = 32
	f := newFenwick(n)
	naive := make([]float64, n)
	for op := 0; op < 2000; op++ {
		i := rng.Intn(n)
		w := rng.Float64() * 10
		f.Set(i, w)
		naive[i] = w
		total := 0.0
		for _, x := range naive {
			total += x
		}
		if math.Abs(f.Total()-total) > 1e-9 {
			t.Fatalf("op %d: total %v vs naive %v", op, f.Total(), total)
		}
		// Spot-check sampling: the returned index must be consistent with the
		// prefix sums.
		target := rng.Float64() * total
		idx := f.Sample(target)
		prefix := 0.0
		want := -1
		for j := 0; j < n; j++ {
			if target < prefix+naive[j] && naive[j] > 0 {
				want = j
				break
			}
			prefix += naive[j]
		}
		if want != -1 && idx != want {
			t.Fatalf("op %d: Sample(%v) = %d, want %d", op, target, idx, want)
		}
	}
}
