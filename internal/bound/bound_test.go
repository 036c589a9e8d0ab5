package bound

import (
	"math"
	"testing"

	"dynamicrumor/internal/gen"
	"dynamicrumor/internal/graph"
)

func TestTheorem11Constant(t *testing.T) {
	c := Theorem11Constant(1)
	want := 30 / C0
	if math.Abs(c-want) > 1e-9 {
		t.Fatalf("C(1) = %v, want %v", c, want)
	}
	// c below 1 is clamped to 1.
	if Theorem11Constant(0.5) != c {
		t.Fatal("c < 1 should clamp to c = 1")
	}
	if Theorem11Constant(2) <= c {
		t.Fatal("constant should grow with c")
	}
}

func TestTheorem11ConstantProfile(t *testing.T) {
	// With Φ·ρ = 0.5 per step, the bound is reached at
	// t = ceil(C log n / 0.5) - 1 steps.
	n := 100
	p := ConstantProfile(StepProfile{Phi: 1, Rho: 0.5, Connected: true})
	got, err := Theorem11(p, n, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	threshold := Theorem11Constant(1) * math.Log(float64(n))
	want := int(math.Ceil(threshold/0.5)) - 1
	if got != want {
		t.Fatalf("Theorem11 = %d, want %d", got, want)
	}
}

func TestTheorem11TinyN(t *testing.T) {
	p := ConstantProfile(StepProfile{Phi: 1, Rho: 1})
	got, err := Theorem11(p, 1, 1, 0)
	if err != nil || got != 0 {
		t.Fatalf("Theorem11(n=1) = (%d, %v), want (0, nil)", got, err)
	}
}

func TestTheorem11NotReached(t *testing.T) {
	p := ConstantProfile(StepProfile{Phi: 0, Rho: 0})
	if _, err := Theorem11(p, 50, 1, 100); err != ErrNotReached {
		t.Fatalf("error = %v, want ErrNotReached", err)
	}
}

func TestTheorem11NormalizedSmallerThanFull(t *testing.T) {
	n := 200
	p := ConstantProfile(StepProfile{Phi: 0.1, Rho: 0.5})
	full, err := Theorem11(p, n, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := Theorem11Normalized(p, n, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if norm >= full {
		t.Fatalf("normalized bound %d should be below the full-constant bound %d", norm, full)
	}
	if _, err := Theorem11Normalized(ConstantProfile(StepProfile{}), 50, 1, 10); err != ErrNotReached {
		t.Fatal("unreachable normalized bound should error")
	}
	if got, _ := Theorem11Normalized(p, 1, 1, 0); got != 0 {
		t.Fatal("n=1 should be 0")
	}
}

func TestTheorem13(t *testing.T) {
	// Connected, ρ̄ = 0.25 per step: threshold 2n reached after 8n-1 steps.
	n := 30
	p := ConstantProfile(StepProfile{AbsRho: 0.25, Connected: true})
	got, err := Theorem13(p, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 8*n-1 {
		t.Fatalf("Theorem13 = %d, want %d", got, 8*n-1)
	}
}

func TestTheorem13SkipsDisconnectedSteps(t *testing.T) {
	// Alternate connected/disconnected: only half the steps count.
	n := 10
	p := func(t int) StepProfile {
		if t%2 == 0 {
			return StepProfile{AbsRho: 1, Connected: true}
		}
		return StepProfile{AbsRho: 1, Connected: false}
	}
	got, err := Theorem13(p, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Needs 2n = 20 connected steps; they are steps 0,2,...,38.
	if got != 38 {
		t.Fatalf("Theorem13 = %d, want 38", got)
	}
}

func TestTheorem13NotReached(t *testing.T) {
	p := ConstantProfile(StepProfile{AbsRho: 1, Connected: false})
	if _, err := Theorem13(p, 20, 50); err != ErrNotReached {
		t.Fatalf("error = %v, want ErrNotReached", err)
	}
	if got, _ := Theorem13(p, 1, 0); got != 0 {
		t.Fatal("n=1 should be 0")
	}
}

func TestCorollary16PicksMinimum(t *testing.T) {
	n := 50
	// Profile where the absolute bound is much better: Φ·ρ tiny but ρ̄ = 1.
	p := ConstantProfile(StepProfile{Phi: 1e-6, Rho: 1e-6, AbsRho: 1, Connected: true})
	got, err := Corollary16(p, n, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	t13, _ := Theorem13(p, n, 0)
	if got != t13 {
		t.Fatalf("Corollary16 = %d, want the Theorem 1.3 value %d", got, t13)
	}
	// Profile where Theorem 1.1 is better.
	p2 := ConstantProfile(StepProfile{Phi: 1, Rho: 1, AbsRho: 1e-9, Connected: true})
	got2, err := Corollary16(p2, n, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	t11, _ := Theorem11(p2, n, 1, 0)
	if got2 != t11 {
		t.Fatalf("Corollary16 = %d, want the Theorem 1.1 value %d", got2, t11)
	}
}

func TestCorollary16OnlyOneReached(t *testing.T) {
	n := 20
	// Only the absolute bound is reachable within the small budget.
	p := ConstantProfile(StepProfile{Phi: 1e-9, Rho: 1e-9, AbsRho: 1, Connected: true})
	got, err := Corollary16(p, n, 1, 3*n)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2*n-1 {
		t.Fatalf("Corollary16 = %d, want %d", got, 2*n-1)
	}
	// Neither reachable.
	if _, err := Corollary16(ConstantProfile(StepProfile{}), n, 1, 10); err != ErrNotReached {
		t.Fatal("want ErrNotReached")
	}
}

func TestRemark14WorstCase(t *testing.T) {
	if got := Remark14WorstCase(10); got != 180 {
		t.Fatalf("Remark14WorstCase(10) = %v, want 180", got)
	}
	if Remark14WorstCase(1) != 0 {
		t.Fatal("n=1 should be 0")
	}
}

func TestGiakkoupisSyncCarriesMFactor(t *testing.T) {
	// Same conductance profile, different M: the bound scales linearly in M.
	n := 100
	p := ConstantProfile(StepProfile{Phi: 0.5})
	small, err := GiakkoupisSync(p, n, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	big, err := GiakkoupisSync(p, n, 50, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if big < 40*small {
		t.Fatalf("M=50 bound %d should be about 50x the M=1 bound %d", big, small)
	}
	if _, err := GiakkoupisSync(ConstantProfile(StepProfile{}), n, 1, 1, 10); err != ErrNotReached {
		t.Fatal("want ErrNotReached")
	}
	if got, _ := GiakkoupisSync(p, 1, 1, 1, 0); got != 0 {
		t.Fatal("n=1 should be 0")
	}
}

func TestLemma22Bound(t *testing.T) {
	// The bound is decreasing in r and equals 1 at r=0.
	if Lemma22Bound(0) != 1 {
		t.Fatal("Lemma22Bound(0) should be 1")
	}
	if Lemma22Bound(10) >= Lemma22Bound(5) {
		t.Fatal("bound should decrease with r")
	}
	if Lemma22Bound(100) > 2e-6 {
		t.Fatalf("Lemma22Bound(100) = %v, want < 2e-6", Lemma22Bound(100))
	}
}

func TestMeasureProfileSmallGraphs(t *testing.T) {
	// Star: Φ = 1, ρ = 1, ρ̄ = 1.
	p := MeasureProfile(gen.Star(9, 0))
	if !p.Connected || p.Phi != 1 || p.Rho != 1 || p.AbsRho != 1 {
		t.Fatalf("star profile %+v", p)
	}
	// Cycle on 10 vertices: Φ = 0.2, ρ = 1, ρ̄ = 0.5.
	p = MeasureProfile(gen.Cycle(10))
	if math.Abs(p.Phi-0.2) > 1e-9 || math.Abs(p.Rho-1) > 1e-9 || p.AbsRho != 0.5 {
		t.Fatalf("cycle profile %+v", p)
	}
	// Disconnected graph.
	p = MeasureProfile(graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}))
	if p.Connected || p.Phi != 0 || p.Rho != 0 {
		t.Fatalf("disconnected profile %+v", p)
	}
}

func TestMeasureProfileLargeGraphUsesEstimates(t *testing.T) {
	p := MeasureProfile(gen.Cycle(100))
	if !p.Connected {
		t.Fatal("cycle should be connected")
	}
	if p.Phi <= 0 || p.Phi > 0.2 {
		t.Fatalf("estimated Φ = %v, want in (0, 0.2] for C_100", p.Phi)
	}
	if p.AbsRho != 0.5 {
		t.Fatalf("ρ̄ = %v, want 0.5", p.AbsRho)
	}
	if p.Rho <= 0 || p.Rho > 1 {
		t.Fatalf("ρ stand-in = %v, want in (0,1]", p.Rho)
	}
}

func TestNetworkProfilerCaches(t *testing.T) {
	calls := 0
	np := NewNetworkProfiler(func(t int) *graph.Graph {
		calls++
		return gen.Cycle(8)
	})
	f := np.Func()
	a := f(0)
	b := f(0)
	if calls != 1 {
		t.Fatalf("graphAt called %d times, want 1 (cached)", calls)
	}
	if a != b {
		t.Fatal("cached profiles differ")
	}
	f(1)
	if calls != 2 {
		t.Fatalf("graphAt called %d times, want 2", calls)
	}
}

func TestTheorem11WithMeasuredStarProfile(t *testing.T) {
	// The dynamic star is 1-diligent with Φ = 1, so Theorem 1.1 gives an
	// O(log n) bound; with the measured profile the bound must be well below n.
	n := 101
	np := NewNetworkProfiler(func(int) *graph.Graph { return gen.Star(n, 0) })
	got, err := Theorem11(np.Func(), n, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ceilLog := Theorem11Constant(1) * math.Log(float64(n))
	if got > int(ceilLog)+1 {
		t.Fatalf("Theorem11 on star = %d, want <= C log n ≈ %v", got, ceilLog)
	}
	// The normalized (constant-free) bound exposes the Θ(log n) shape: it must
	// be far below n.
	norm, err := Theorem11Normalized(np.Func(), n, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if norm >= n/2 {
		t.Fatalf("normalized Theorem 1.1 bound on star = %d, should be Θ(log n) ≪ n = %d", norm, n)
	}
}
