package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanBasic(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestVarianceBasic(t *testing.T) {
	if got := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEqual(got, 4.571428571, 1e-6) {
		t.Fatalf("Variance = %v", got)
	}
}

func TestVarianceConstant(t *testing.T) {
	if got := Variance([]float64{3, 3, 3, 3}); got != 0 {
		t.Fatalf("Variance of constants = %v, want 0", got)
	}
}

func TestVarianceNonNegativeProperty(t *testing.T) {
	if err := quick.Check(func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				return true
			}
		}
		return Variance(xs) >= 0
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantileBasic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	if got := Quantile([]float64{0, 10}, 0.5); got != 5 {
		t.Fatalf("Quantile = %v, want 5", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	if err := quick.Check(func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q1 := float64(a%101) / 100
		q2 := float64(b%101) / 100
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return Quantile(xs, q1) <= Quantile(xs, q2)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestEmpiricalCDF(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := EmpiricalCDF(xs, 2.5); got != 0.5 {
		t.Fatalf("EmpiricalCDF = %v, want 0.5", got)
	}
	if got := EmpiricalCDF(xs, 0); got != 0 {
		t.Fatalf("EmpiricalCDF = %v, want 0", got)
	}
	if got := EmpiricalCDF(xs, 10); got != 1 {
		t.Fatalf("EmpiricalCDF = %v, want 1", got)
	}
}

func TestKSDistanceIdentical(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if got := KSDistance(a, a); got != 0 {
		t.Fatalf("KSDistance(a,a) = %v, want 0", got)
	}
}

func TestKSDistanceDisjoint(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 11, 12}
	if got := KSDistance(a, b); got != 1 {
		t.Fatalf("KSDistance disjoint = %v, want 1", got)
	}
}

func TestKSDistanceRangeProperty(t *testing.T) {
	if err := quick.Check(func(a, b []float64) bool {
		clean := func(xs []float64) []float64 {
			out := xs[:0]
			for _, x := range xs {
				if !math.IsNaN(x) && !math.IsInf(x, 0) {
					out = append(out, x)
				}
			}
			return out
		}
		a, b = clean(a), clean(b)
		d := KSDistance(a, b)
		return d >= 0 && d <= 1
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 1 + 2x
	a, b, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(a, 1, 1e-9) || !almostEqual(b, 2, 1e-9) {
		t.Fatalf("LinearFit = (%v,%v), want (1,2)", a, b)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("expected error for single point")
	}
	if _, _, err := LinearFit([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for degenerate x")
	}
	if _, _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("expected error for length mismatch")
	}
}

func TestGrowthExponentQuadratic(t *testing.T) {
	var x, y []float64
	for n := 10; n <= 1000; n *= 2 {
		x = append(x, float64(n))
		y = append(y, 3*float64(n)*float64(n))
	}
	alpha, err := GrowthExponent(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(alpha, 2, 1e-6) {
		t.Fatalf("GrowthExponent = %v, want 2", alpha)
	}
}

func TestGrowthExponentSkipsNonPositive(t *testing.T) {
	x := []float64{-1, 1, 2, 4}
	y := []float64{5, 1, 2, 4}
	alpha, err := GrowthExponent(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(alpha, 1, 1e-9) {
		t.Fatalf("GrowthExponent = %v, want 1", alpha)
	}
}
