package xrand

import (
	"math"
	"testing"
)

// TestFloat64FillMatchesScalar pins the batch contract: Float64Fill is
// draw-for-draw identical to sequential Float64 calls, for several buffer
// sizes including empty.
func TestFloat64FillMatchesScalar(t *testing.T) {
	for _, n := range []int{0, 1, 7, 256} {
		a, b := New(13), New(13)
		got := make([]float64, n)
		a.Float64Fill(got)
		for i := 0; i < n; i++ {
			if want := b.Float64(); got[i] != want {
				t.Fatalf("n=%d: Float64Fill[%d] = %v, want %v", n, i, got[i], want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d: Float64Fill advanced the stream differently from scalar calls", n)
		}
	}
}

func TestExpFillMatchesScalar(t *testing.T) {
	for _, rate := range []float64{0.25, 1, 3.5} {
		a, b := New(29), New(29)
		got := make([]float64, 100)
		a.ExpFill(rate, got)
		for i := range got {
			if want := b.Exp(rate); got[i] != want {
				t.Fatalf("rate=%v: ExpFill[%d] = %v, want %v", rate, i, got[i], want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("rate=%v: ExpFill advanced the stream differently from scalar calls", rate)
		}
	}
}

func TestGeometricFillMatchesScalar(t *testing.T) {
	for _, p := range []float64{0.01, 0.5, 0.99, 1} {
		a, b := New(31), New(31)
		got := make([]int, 200)
		a.GeometricFill(p, got)
		for i := range got {
			if want := b.Geometric(p); got[i] != want {
				t.Fatalf("p=%v: GeometricFill[%d] = %d, want %d", p, i, got[i], want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("p=%v: GeometricFill advanced the stream differently from scalar calls", p)
		}
	}
}

func TestFillPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	r := New(1)
	mustPanic("ExpFill(0)", func() { r.ExpFill(0, make([]float64, 1)) })
	mustPanic("GeometricFill(0)", func() { r.GeometricFill(0, make([]int, 1)) })
	mustPanic("GeometricFill(1.5)", func() { r.GeometricFill(1.5, make([]int, 1)) })
}

// TestMarkovStepMatchesBernoulli pins MarkovStep to the scalar chain it
// replaces — one Bernoulli(q) per present entry, one Bernoulli(p) per absent
// one — over ordinary, tiny, extreme and out-of-range probabilities.
func TestMarkovStepMatchesBernoulli(t *testing.T) {
	pqs := [][2]float64{{0.05, 0.5}, {0.3, 0.1}, {0.001, 0.999}, {1, 0}, {0, 1},
		{0.5, 0.5}, {1e-300, 1 - 1e-16}, {-0.5, 1.5}, {math.NaN(), 0.25}}
	for _, pq := range pqs {
		p, q := pq[0], pq[1]
		init := New(5)
		state := make([]bool, 4096)
		for i := range state {
			state[i] = init.Bernoulli(0.4)
		}
		want := append([]bool(nil), state...)
		a, b := New(17), New(17)
		for round := 0; round < 3; round++ {
			a.MarkovStep(state, p, q)
			for i, on := range want {
				if on {
					want[i] = !b.Bernoulli(q)
				} else {
					want[i] = b.Bernoulli(p)
				}
			}
			for i := range want {
				if state[i] != want[i] {
					t.Fatalf("p=%v q=%v round %d: entry %d = %v, want %v", p, q, round, i, state[i], want[i])
				}
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("p=%v q=%v: MarkovStep advanced the stream differently from Bernoulli", p, q)
		}
	}
}

// TestThreshold53IsExact checks the identity MarkovStep rests on,
// Float64() < p ⇔ x>>11 < ⌈p·2⁵³⌉, at the boundary: for drawn values f,
// with p equal to f and to its two float neighbours.
func TestThreshold53IsExact(t *testing.T) {
	r := New(99)
	for i := 0; i < 100000; i++ {
		x := r.Uint64()
		f := float64(x>>11) / (1 << 53)
		for _, p := range []float64{f, math.Nextafter(f, 2), math.Nextafter(f, -1)} {
			if got, want := x>>11 < threshold53(p), f < p; got != want {
				t.Fatalf("x>>11=%d p=%v: threshold says %v, Float64() < p says %v", x>>11, p, got, want)
			}
		}
	}
}
