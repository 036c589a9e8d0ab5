package diligence

import (
	"math"
	"testing"

	"dynamicrumor/internal/gen"
	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/xrand"
)

func TestAbsoluteStar(t *testing.T) {
	// Star edges join a degree-1 leaf to the center: max(1/1, 1/(n-1)) = 1.
	if got := Absolute(gen.Star(8, 0)); got != 1 {
		t.Fatalf("absolute diligence of star = %v, want 1", got)
	}
}

func TestAbsoluteRegular(t *testing.T) {
	// In a d-regular graph every edge gives 1/d.
	g := gen.Cycle(10)
	if got := Absolute(g); got != 0.5 {
		t.Fatalf("absolute diligence of cycle = %v, want 0.5", got)
	}
	if got := Absolute(gen.Clique(6)); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("absolute diligence of K6 = %v, want 0.2", got)
	}
}

func TestAbsoluteEmptyGraph(t *testing.T) {
	if got := Absolute(graph.FromEdges(5, nil)); got != 0 {
		t.Fatalf("absolute diligence of edgeless graph = %v, want 0", got)
	}
}

func TestAbsoluteCliqueWithPendant(t *testing.T) {
	// The pendant edge joins degree 1 and degree n, so it contributes 1; but
	// the clique edges join two degree >= n-1 vertices contributing 1/(n-1):
	// the minimum is over edges, so ρ̄ = 1/min over... = 1/(n-1)... careful:
	// ρ̄ = min over edges of max(1/du,1/dv). For a clique edge between two
	// degree-5 vertices (n=6 clique) this is 1/5; for the pendant edge it is
	// 1. The minimum is 1/5.
	g := gen.CliqueWithPendant(6)
	if got := Absolute(g); math.Abs(got-1.0/5) > 1e-12 {
		t.Fatalf("absolute diligence = %v, want 1/5", got)
	}
}

func TestAbsoluteLowerBoundProperty(t *testing.T) {
	// For every nonempty graph, ρ̄(G) >= 1/(n-1).
	rng := xrand.New(31)
	for trial := 0; trial < 50; trial++ {
		g := gen.RandomConnected(2+rng.Intn(30), 0.2, rng)
		lo := 1 / float64(g.N()-1)
		got := Absolute(g)
		if got < lo-1e-12 || got > 1+1e-12 {
			t.Fatalf("trial %d: absolute diligence %v outside [%v,1]", trial, got, lo)
		}
	}
}

func TestOfCutPath(t *testing.T) {
	// Path 0-1-2-3, S={0,1}: vol=3, |S|=2, d̄=1.5.
	// Cut edge {1,2}: max(1.5/2, 1.5/2) = 0.75.
	g := gen.Path(4)
	got := OfCut(g, []bool{true, true, false, false})
	if math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("OfCut = %v, want 0.75", got)
	}
}

func TestOfCutEmptySet(t *testing.T) {
	g := gen.Path(4)
	if got := OfCut(g, []bool{false, false, false, false}); got != 0 {
		t.Fatalf("OfCut(empty) = %v, want 0", got)
	}
}

func TestOfCutNoCrossingEdges(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if got := OfCut(g, []bool{true, true, false, false}); got != 0 {
		t.Fatalf("OfCut with no crossing edges = %v, want 0", got)
	}
}

func TestExactStarIsOneDiligent(t *testing.T) {
	got, err := Exact(gen.Star(9, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("ρ(star) = %v, want 1", got)
	}
}

func TestExactRegularIsOneDiligent(t *testing.T) {
	for _, g := range []*graph.Graph{gen.Cycle(8), gen.Clique(7), gen.Hypercube(3), gen.Torus(3, 4)} {
		got, err := Exact(g)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-1) > 1e-12 {
			t.Fatalf("ρ(regular graph) = %v, want 1", got)
		}
	}
}

func TestExactDisconnectedIsZero(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	got, err := Exact(g)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("ρ(disconnected) = %v, want 0", got)
	}
}

func TestExactTooLarge(t *testing.T) {
	if _, err := Exact(gen.Cycle(30)); err != ErrTooLarge {
		t.Fatalf("error = %v, want ErrTooLarge", err)
	}
}

func TestExactWithinUniversalBounds(t *testing.T) {
	rng := xrand.New(41)
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(12)
		g := gen.RandomConnected(n, 0.4, rng)
		got, err := Exact(g)
		if err != nil {
			t.Fatal(err)
		}
		lo := 1 / float64(n-1)
		if got < lo-1e-12 || got > 1+1e-12 {
			t.Fatalf("trial %d (n=%d): ρ = %v outside [%v, 1]", trial, n, got, lo)
		}
	}
}

func TestExactCliqueWithPendant(t *testing.T) {
	// For the n-clique with a pendant vertex, the cut {pendant} has
	// d̄ = 1 and its single edge joins degrees 1 and n, giving ρ(S) = 1.
	// Balanced clique cuts have d̄ ≈ n-1 and min degree n-1 on crossing edges,
	// giving ρ(S) ≈ 1. The overall diligence stays within a constant of 1 but
	// strictly positive and at most 1.
	g := gen.CliqueWithPendant(7)
	got, err := Exact(g)
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 || got > 1 {
		t.Fatalf("ρ(clique+pendant) = %v, want in (0, 1]", got)
	}
}

func TestExactAgainstDirectEnumerationOnPath(t *testing.T) {
	// Hand-check the path on 4 vertices. Volumes: d = [1,2,2,1], vol = 6.
	// Candidate S with vol <= 3 include {0} (ρ=1/2... d̄=1, cut edge {0,1}
	// degrees 1,2 -> max(1/1,1/2)=1), {1} (d̄=2, edges to deg 1 and 2:
	// min(max(2/2,2/1), max(2/2,2/2)) = min(2,1) = 1), {0,1} (0.75 from the
	// other test), {3}, {2,3} symmetric, {0,3} (d̄=1, cut edges {0,1},{2,3}:
	// both max(1/1,1/2)=1), {0,2} (vol=3, d̄=1.5, cut edges {0,1},{1,2},{2,3}:
	// values max(1.5/1,1.5/2)=1.5, max(1.5/2,1.5/2)=0.75, 1.5 -> min 0.75).
	// The minimum over all valid S is therefore 0.75.
	got, err := Exact(gen.Path(4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("ρ(P4) = %v, want 0.75", got)
	}
}

func TestHkdDiligenceMatchesObservation41(t *testing.T) {
	// Small instance of H_{k,Δ}: the diligence should be Θ(1/Δ) and the
	// absolute diligence should also be Θ(1/Δ) because every cut through the
	// bipartite string meets only degree-2Δ vertices.
	rng := xrand.New(51)
	var a, b []int
	for v := 0; v < 5; v++ {
		a = append(a, v)
	}
	for v := 5; v < 20; v++ {
		b = append(b, v)
	}
	h, err := gen.NewHkd(gen.HkdParams{K: 2, Delta: 2, A: a, B: b}, rng)
	if err != nil {
		t.Fatal(err)
	}
	rho, err := Exact(h.Graph)
	if err != nil {
		t.Fatal(err)
	}
	scale := h.DiligenceScale() // 1/Δ = 0.5
	if rho < scale/8 || rho > 4*scale {
		t.Fatalf("ρ(H) = %v not within a small constant of 1/Δ = %v", rho, scale)
	}
}
