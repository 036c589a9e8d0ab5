package sim

import (
	"fmt"
	"math"
	"testing"

	"dynamicrumor/internal/gen"
	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/xrand"
)

// referenceLoad is the full-scan graph load both kernels used to run: every
// vertex counts its neighbors across the cut, and its rate is the branchy
// per-vertex formula contactRates replaced.
func referenceLoad(g *graph.Graph, informed []bool, mode Mode, rate float64) (counts []int, weights []float64) {
	n := g.N()
	counts = make([]int, n)
	weights = make([]float64, n)
	for v := 0; v < n; v++ {
		c := 0
		for _, u := range g.Neighbors(v) {
			if informed[u] != informed[v] {
				c++
			}
		}
		counts[v] = c
		if c == 0 {
			continue
		}
		if informed[v] {
			if mode != PullOnly {
				weights[v] = rate * float64(c) / float64(g.Degree(v))
			}
		} else if mode != PushOnly {
			weights[v] = rate * float64(c) / float64(g.Degree(v))
		}
	}
	return counts, weights
}

// loadGraphs mixes regular graphs (served by the quotient table) with
// irregular ones (served by the division), dense and sparse for v2.
func loadGraphs() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"clique", gen.Clique(40)},
		{"hypercube", gen.Hypercube(5)},
		{"torus", gen.Torus(5, 7)},
		{"star", gen.Star(30, 4)},
		{"barbell", gen.Barbell(18)},
		{"complete-bipartite", gen.CompleteBipartite(9, 30)},
		{"erdos-renyi", gen.ErdosRenyi(50, 0.15, xrand.New(5))},
		{"isolated", isolatedVertexGraph()},
	}
}

// informedSets returns the empty, single, all-but-one and full sets plus
// random ones of several densities, so both sides of the cut get scanned.
func informedSets(n int, rng *xrand.RNG) [][]bool {
	sets := [][]bool{make([]bool, n)}
	one := make([]bool, n)
	one[n/2] = true
	sets = append(sets, one)
	allButOne := make([]bool, n)
	full := make([]bool, n)
	for v := range full {
		allButOne[v] = v != n/3
		full[v] = true
	}
	sets = append(sets, allButOne, full)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		for k := 0; k < 4; k++ {
			s := make([]bool, n)
			for v := range s {
				s[v] = rng.Float64() < p
			}
			sets = append(sets, s)
		}
	}
	return sets
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestLoadGraphMatchesFullScan pins the smaller-side loadGraph of both
// kernels to the full-scan reference bit for bit: counts, per-vertex rates,
// and the v1 Fenwick tree against a Reset-then-Set build in ascending order.
// Each state loads every set in turn, so stale counts from a previous load
// would show.
func TestLoadGraphMatchesFullScan(t *testing.T) {
	rng := xrand.New(11)
	for _, c := range loadGraphs() {
		name, g := c.name, c.g
		n := g.N()
		sets := informedSets(n, rng)
		for _, mode := range []Mode{PushPull, PushOnly, PullOnly} {
			for _, rate := range []float64{1, 2.5} {
				var v1 asyncState
				var v2 asyncStateV2
				v1.prepare(n, mode, rate)
				v2.prepare(n, mode, rate)
				for si, set := range sets {
					label := fmt.Sprintf("%s %s rate %v set %d", name, mode, rate, si)
					copy(v1.informed, set)
					copy(v2.informed, set)
					v1.loadGraph(g)
					v2.loadGraph(g)
					counts, weights := referenceLoad(g, set, mode, rate)
					ref := newFenwick(n)
					for v, w := range weights {
						ref.Set(v, w)
					}
					for v := 0; v < n; v++ {
						if v1.counts[v] != counts[v] || int(v2.counts[v]) != counts[v] {
							t.Fatalf("%s: count of %d: v1 %d v2 %d, want %d", label, v, v1.counts[v], v2.counts[v], counts[v])
						}
						if !sameBits(v1.weights.Get(v), weights[v]) || !sameBits(v2.cur[v], weights[v]) {
							t.Fatalf("%s: rate of %d: v1 %v v2 %v, want %v", label, v, v1.weights.Get(v), v2.cur[v], weights[v])
						}
					}
					for j := range ref.tree {
						if !sameBits(v1.weights.tree[j], ref.tree[j]) {
							t.Fatalf("%s: Fenwick node %d = %v, want %v", label, j, v1.weights.tree[j], ref.tree[j])
						}
					}
					if want := g.Volume() >= v2DenseDegree*n; v2.dense != want {
						t.Fatalf("%s: v2 dense = %v, want %v", label, v2.dense, want)
					}
				}
			}
		}
	}
}

// TestInformKeepsRatesExact informs random vertices one at a time and checks
// after each that both kernels' counts and per-vertex rates equal a fresh
// full-scan load: the O(1) own count and the branch-free neighbor update
// compute exactly what a reload would.
func TestInformKeepsRatesExact(t *testing.T) {
	rng := xrand.New(12)
	for _, c := range loadGraphs() {
		name, g := c.name, c.g
		n := g.N()
		for _, mode := range []Mode{PushPull, PushOnly, PullOnly} {
			var v1 asyncState
			var v2 asyncStateV2
			v1.prepare(n, mode, 1.5)
			v2.prepare(n, mode, 1.5)
			v1.informed[0], v2.informed[0] = true, true
			v1.loadGraph(g)
			v2.loadGraph(g)
			for _, v := range rng.Perm(n) {
				v1.inform(v)
				v2.inform(v)
				counts, weights := referenceLoad(g, v1.informed, mode, 1.5)
				for u := 0; u < n; u++ {
					if v1.counts[u] != counts[u] || int(v2.counts[u]) != counts[u] {
						t.Fatalf("%s %s after informing %d: count of %d: v1 %d v2 %d, want %d", name, mode, v, u, v1.counts[u], v2.counts[u], counts[u])
					}
					if !sameBits(v1.weights.Get(u), weights[u]) || !sameBits(v2.cur[u], weights[u]) {
						t.Fatalf("%s %s after informing %d: rate of %d: v1 %v v2 %v, want %v", name, mode, v, u, v1.weights.Get(u), v2.cur[u], weights[u])
					}
				}
			}
		}
	}
}
