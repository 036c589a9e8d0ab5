package gen

import (
	"testing"

	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/xrand"
)

func validate(t *testing.T, g *graph.Graph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestClique(t *testing.T) {
	g := Clique(5)
	validate(t, g)
	if g.N() != 5 || g.M() != 10 {
		t.Fatalf("K5 has n=%d m=%d", g.N(), g.M())
	}
	if ok, d := g.IsRegular(); !ok || d != 4 {
		t.Fatalf("K5 regularity = (%v,%d)", ok, d)
	}
	if g.Diameter() != 1 {
		t.Fatalf("K5 diameter = %d", g.Diameter())
	}
}

func TestCliqueSmall(t *testing.T) {
	if g := Clique(1); g.N() != 1 || g.M() != 0 {
		t.Fatal("K1 wrong")
	}
	if g := Clique(0); g.N() != 0 || g.M() != 0 {
		t.Fatal("K0 wrong")
	}
}

func TestStar(t *testing.T) {
	g := Star(6, 0)
	validate(t, g)
	if g.M() != 5 || g.Degree(0) != 5 {
		t.Fatalf("star m=%d deg(center)=%d", g.M(), g.Degree(0))
	}
	for v := 1; v < 6; v++ {
		if g.Degree(v) != 1 {
			t.Fatalf("leaf %d degree %d", v, g.Degree(v))
		}
	}
	g2 := Star(6, 3)
	if g2.Degree(3) != 5 {
		t.Fatal("star with non-zero center wrong")
	}
}

func TestStarPanicsBadCenter(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Star with bad center did not panic")
		}
	}()
	Star(3, 5)
}

func TestPathAndCycle(t *testing.T) {
	p := Path(5)
	validate(t, p)
	if p.M() != 4 || p.Diameter() != 4 {
		t.Fatalf("path m=%d diam=%d", p.M(), p.Diameter())
	}
	c := Cycle(6)
	validate(t, c)
	if c.M() != 6 || c.Diameter() != 3 {
		t.Fatalf("cycle m=%d diam=%d", c.M(), c.Diameter())
	}
	if ok, d := c.IsRegular(); !ok || d != 2 {
		t.Fatal("cycle not 2-regular")
	}
	if Cycle(2).M() != 1 {
		t.Fatal("Cycle(2) should be a single edge")
	}
	if Cycle(1).M() != 0 {
		t.Fatal("Cycle(1) should have no edges")
	}
}

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(3, 4)
	validate(t, g)
	if g.N() != 7 || g.M() != 12 {
		t.Fatalf("K_{3,4} n=%d m=%d", g.N(), g.M())
	}
	for v := 0; v < 3; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("left vertex degree %d", g.Degree(v))
		}
	}
	for v := 3; v < 7; v++ {
		if g.Degree(v) != 3 {
			t.Fatalf("right vertex degree %d", g.Degree(v))
		}
	}
}

func TestGridAndTorus(t *testing.T) {
	g := Grid(3, 4)
	validate(t, g)
	if g.N() != 12 || g.M() != 3*3+4*2 {
		t.Fatalf("grid n=%d m=%d", g.N(), g.M())
	}
	if !g.IsConnected() {
		t.Fatal("grid disconnected")
	}
	tor := Torus(4, 5)
	validate(t, tor)
	if ok, d := tor.IsRegular(); !ok || d != 4 {
		t.Fatalf("torus regularity (%v,%d)", ok, d)
	}
	if tor.M() != 2*4*5 {
		t.Fatalf("torus m=%d", tor.M())
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	validate(t, g)
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("Q4 n=%d m=%d", g.N(), g.M())
	}
	if ok, d := g.IsRegular(); !ok || d != 4 {
		t.Fatal("Q4 not 4-regular")
	}
	if g.Diameter() != 4 {
		t.Fatalf("Q4 diameter = %d", g.Diameter())
	}
	if Hypercube(0).N() != 1 {
		t.Fatal("Q0 should have a single vertex")
	}
}

func TestHypercubePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Hypercube(-1) did not panic")
		}
	}()
	Hypercube(-1)
}

func TestCirculant(t *testing.T) {
	g := Circulant(10, []int{1, 3})
	validate(t, g)
	if ok, d := g.IsRegular(); !ok || d != 4 {
		t.Fatalf("circulant regularity (%v,%d)", ok, d)
	}
	if !g.IsConnected() {
		t.Fatal("circulant disconnected")
	}
	// Offsets 0 and n are ignored.
	g2 := Circulant(5, []int{0, 5, 1})
	if ok, d := g2.IsRegular(); !ok || d != 2 {
		t.Fatalf("circulant with degenerate offsets (%v,%d)", ok, d)
	}
}

func TestBarbell(t *testing.T) {
	g := Barbell(5)
	validate(t, g)
	if g.N() != 10 || g.M() != 2*10+1 {
		t.Fatalf("barbell n=%d m=%d", g.N(), g.M())
	}
	if !g.IsConnected() {
		t.Fatal("barbell disconnected")
	}
	if !g.HasEdge(4, 5) {
		t.Fatal("barbell bridge missing")
	}
}

func TestCliqueWithPendant(t *testing.T) {
	g := CliqueWithPendant(6)
	validate(t, g)
	if g.N() != 7 || g.Degree(6) != 1 || g.Degree(0) != 6 {
		t.Fatalf("clique+pendant degrees wrong: n=%d deg(6)=%d deg(0)=%d", g.N(), g.Degree(6), g.Degree(0))
	}
	for v := 1; v < 6; v++ {
		if g.Degree(v) != 5 {
			t.Fatalf("clique vertex %d degree %d", v, g.Degree(v))
		}
	}
}

func TestTwoCliquesBridged(t *testing.T) {
	left := []int{0, 1, 2}
	right := []int{3, 4, 5}
	g := TwoCliquesBridged(6, left, right, 0, 5)
	validate(t, g)
	if g.M() != 3+3+1 {
		t.Fatalf("two cliques m=%d", g.M())
	}
	if !g.HasEdge(0, 5) {
		t.Fatal("bridge missing")
	}
	if !g.IsConnected() {
		t.Fatal("disconnected")
	}
}

func TestErdosRenyiEdgeCount(t *testing.T) {
	rng := xrand.New(5)
	const n = 200
	p := 0.05
	total := 0
	const reps = 20
	for i := 0; i < reps; i++ {
		g := ErdosRenyi(n, p, rng)
		validate(t, g)
		total += g.M()
	}
	mean := float64(total) / reps
	want := p * float64(n*(n-1)) / 2
	if mean < 0.85*want || mean > 1.15*want {
		t.Fatalf("ER mean edges %.1f, want about %.1f", mean, want)
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	rng := xrand.New(6)
	if g := ErdosRenyi(10, 0, rng); g.M() != 0 {
		t.Fatal("p=0 graph has edges")
	}
	if g := ErdosRenyi(10, 1, rng); g.M() != 45 {
		t.Fatal("p=1 graph is not complete")
	}
	if g := ErdosRenyi(1, 0.5, rng); g.N() != 1 || g.M() != 0 {
		t.Fatal("n=1 graph wrong")
	}
}

func TestRandomConnected(t *testing.T) {
	rng := xrand.New(7)
	g := RandomConnected(50, 0.05, rng)
	validate(t, g)
	if !g.IsConnected() {
		t.Fatal("RandomConnected returned a disconnected graph")
	}
	if RandomConnected(1, 0.5, rng).N() != 1 {
		t.Fatal("n=1 wrong")
	}
}

func TestRandomRegular(t *testing.T) {
	rng := xrand.New(8)
	for _, tc := range []struct{ n, d int }{{10, 3}, {20, 4}, {50, 5}, {16, 0}} {
		g, err := RandomRegular(tc.n, tc.d, rng)
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", tc.n, tc.d, err)
		}
		validate(t, g)
		if ok, d := g.IsRegular(); !ok || d != tc.d {
			t.Fatalf("RandomRegular(%d,%d) gave degree %d (regular=%v)", tc.n, tc.d, d, ok)
		}
	}
}

func TestRandomRegularRejectsImpossible(t *testing.T) {
	rng := xrand.New(9)
	if _, err := RandomRegular(5, 3, rng); err == nil {
		t.Fatal("n*d odd should fail")
	}
	if _, err := RandomRegular(4, 4, rng); err == nil {
		t.Fatal("d >= n should fail")
	}
}

func TestCirculantRegular(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{10, 4}, {12, 3}, {9, 2}, {8, 0}} {
		g, err := CirculantRegular(tc.n, tc.d)
		if err != nil {
			t.Fatalf("CirculantRegular(%d,%d): %v", tc.n, tc.d, err)
		}
		validate(t, g)
		if ok, d := g.IsRegular(); !ok || d != tc.d {
			t.Fatalf("CirculantRegular(%d,%d) degree %d regular=%v", tc.n, tc.d, d, ok)
		}
		if tc.d >= 2 && !g.IsConnected() {
			t.Fatalf("CirculantRegular(%d,%d) disconnected", tc.n, tc.d)
		}
	}
	if _, err := CirculantRegular(5, 3); err == nil {
		t.Fatal("odd n*d should fail")
	}
}

func TestExpanderConnectedAndSparse(t *testing.T) {
	rng := xrand.New(10)
	for _, n := range []int{10, 64, 257, 1000} {
		g := Expander(n, 4, rng)
		validate(t, g)
		if !g.IsConnected() {
			t.Fatalf("expander on %d vertices disconnected", n)
		}
		if g.MaxDegree() > 8 {
			t.Fatalf("expander max degree %d too large", g.MaxDegree())
		}
	}
}

func TestExpanderTinyFallsBackToClique(t *testing.T) {
	rng := xrand.New(11)
	g := Expander(3, 4, rng)
	if g.M() != 3 {
		t.Fatalf("tiny expander m=%d, want 3", g.M())
	}
}

// buildNearRegular builds the near-regular graph G(A, d1, d2) through
// AppendNearRegular, the path the near-regular family uses.
func buildNearRegular(n, baseDegree, specialDegree, special int) (*graph.Graph, error) {
	b := graph.NewBuilder(n)
	if err := AppendNearRegular(b, nil, n, baseDegree, specialDegree, special, nil, nil); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

func TestNearRegular(t *testing.T) {
	g, err := buildNearRegular(30, 4, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, g)
	if !g.IsConnected() {
		t.Fatal("NearRegular disconnected")
	}
	if g.Degree(7) != 10 {
		t.Fatalf("special degree = %d, want 10", g.Degree(7))
	}
	for v := 0; v < 30; v++ {
		if v == 7 {
			continue
		}
		if g.Degree(v) != 4 {
			t.Fatalf("vertex %d degree %d, want 4", v, g.Degree(v))
		}
	}
}

func TestNearRegularEqualDegrees(t *testing.T) {
	g, err := buildNearRegular(20, 4, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok, d := g.IsRegular(); !ok || d != 4 {
		t.Fatal("NearRegular with equal degrees should be regular")
	}
}

func TestNearRegularBadParams(t *testing.T) {
	cases := []struct{ n, d1, d2, s int }{
		{10, 3, 4, 0},   // odd base degree
		{10, 4, 5, 0},   // odd special degree
		{10, 4, 2, 0},   // special < base
		{10, 12, 14, 0}, // degree >= n
		{10, 4, 6, 20},  // special vertex out of range
	}
	for _, c := range cases {
		if _, err := buildNearRegular(c.n, c.d1, c.d2, c.s); err == nil {
			t.Errorf("NearRegular(%v) should have failed", c)
		}
	}
}
