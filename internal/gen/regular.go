package gen

import (
	"errors"
	"fmt"

	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/xrand"
)

// ErrNoRegularGraph is returned when the requested (n, d) combination admits
// no simple d-regular graph (n*d odd, or d >= n).
var ErrNoRegularGraph = errors.New("gen: no simple regular graph with these parameters")

// RandomRegular returns a random d-regular simple graph on n vertices using
// the pairing (configuration) model followed by edge-switching repair:
// half-edges are paired uniformly at random, and any self-loop or multi-edge
// is removed by swapping it with a uniformly random other pair (a standard
// double-edge switch), which preserves all degrees. The repair converges
// quickly for every constant d, unlike whole-graph rejection which becomes
// hopeless already at d = 6.
func RandomRegular(n, d int, rng *xrand.RNG) (*graph.Graph, error) {
	if d < 0 || d >= n || (n*d)%2 != 0 {
		return nil, ErrNoRegularGraph
	}
	if d == 0 {
		return graph.FromEdges(n, nil), nil
	}
	const maxAttempts = 50
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if g, ok := randomRegularAttempt(n, d, rng); ok {
			return g, nil
		}
	}
	return nil, fmt.Errorf("gen: random regular graph n=%d d=%d: %w", n, d,
		errors.New("pairing model with switching repair failed to produce a simple graph"))
}

// randomRegularAttempt makes one pairing and tries to repair it with random
// double-edge switches. It reports failure if the repair does not converge.
func randomRegularAttempt(n, d int, rng *xrand.RNG) (*graph.Graph, bool) {
	stubs := make([]int, n*d)
	for i := range stubs {
		stubs[i] = i / d
	}
	rng.Shuffle(stubs)
	m := len(stubs) / 2
	pairU := make([]int, m)
	pairV := make([]int, m)
	count := make(map[graph.Edge]int, m)
	key := func(u, v int) graph.Edge { return graph.Edge{U: u, V: v}.Canonical() }
	for i := 0; i < m; i++ {
		pairU[i], pairV[i] = stubs[2*i], stubs[2*i+1]
		if pairU[i] != pairV[i] {
			count[key(pairU[i], pairV[i])]++
		}
	}
	isBad := func(i int) bool {
		return pairU[i] == pairV[i] || count[key(pairU[i], pairV[i])] > 1
	}
	remove := func(i int) {
		if pairU[i] != pairV[i] {
			count[key(pairU[i], pairV[i])]--
		}
	}
	add := func(i int) {
		if pairU[i] != pairV[i] {
			count[key(pairU[i], pairV[i])]++
		}
	}
	// Repair loop: repeatedly pick a bad pair and switch it with a random
	// other pair. Each successful switch strictly reduces the number of bad
	// incidences in expectation; cap the work generously.
	maxSwitches := 200 * (m + 10)
	for iter := 0; iter < maxSwitches; iter++ {
		bad := -1
		for i := 0; i < m; i++ {
			if isBad(i) {
				bad = i
				break
			}
		}
		if bad == -1 {
			b := graph.NewBuilder(n)
			for i := 0; i < m; i++ {
				b.AddEdge(pairU[i], pairV[i])
			}
			g := b.Build()
			if ok, got := g.IsRegular(); ok && got == d {
				return g, true
			}
			return nil, false
		}
		other := rng.Intn(m)
		if other == bad {
			continue
		}
		// Propose the switch (u1,v1),(u2,v2) -> (u1,v2),(u2,v1).
		u1, v1 := pairU[bad], pairV[bad]
		u2, v2 := pairU[other], pairV[other]
		if u1 == v2 || u2 == v1 {
			continue
		}
		newA, newB := key(u1, v2), key(u2, v1)
		if count[newA] > 0 || count[newB] > 0 || newA == newB {
			continue
		}
		remove(bad)
		remove(other)
		pairV[bad], pairV[other] = v2, v1
		add(bad)
		add(other)
	}
	return nil, false
}

// CirculantRegular returns a deterministic connected d-regular graph on n
// vertices built from a circulant: offsets 1, 2, ..., d/2 (plus n/2 when d is
// odd and n is even). These graphs have constant conductance for constant d
// when the offsets are spread, but here they are primarily used as simple
// deterministic regular substrates; use Expander for Θ(1)-conductance graphs.
func CirculantRegular(n, d int) (*graph.Graph, error) {
	if d < 0 || d >= n || (n*d)%2 != 0 {
		return nil, ErrNoRegularGraph
	}
	if d == 0 {
		return graph.FromEdges(n, nil), nil
	}
	offsets := make([]int, 0, d/2+1)
	for o := 1; o <= d/2; o++ {
		offsets = append(offsets, o)
	}
	if d%2 == 1 {
		offsets = append(offsets, n/2)
	}
	g := Circulant(n, offsets)
	if ok, got := g.IsRegular(); !ok || got != d {
		return nil, fmt.Errorf("gen: circulant construction produced degree %d instead of %d", got, d)
	}
	return g, nil
}

// AppendCirculant emits the edges of the circulant graph on n vertices with
// the given offsets into b, renumbered through vmap (vmap[i] is the builder
// vertex id of circulant vertex i; a nil vmap is the identity). The edge set
// matches Circulant(n, offsets); duplicates are dropped by the builder.
func AppendCirculant(b *graph.Builder, vmap []int, n int, offsets []int) {
	id := func(v int) int {
		if vmap == nil {
			return v
		}
		return vmap[v]
	}
	for v := 0; v < n; v++ {
		for _, o := range offsets {
			o = ((o % n) + n) % n
			if o == 0 {
				continue
			}
			b.AddEdge(id(v), id((v+o)%n))
		}
	}
}

// Expander returns a connected graph with maximum degree at most maxDegree
// and conductance Θ(1): the union of maxDegree/2 independent uniformly random
// Hamiltonian cycles. A single random cycle already makes the graph connected
// and spanning; the union of two or more is an expander with high
// probability. For the paper's constructions the only requirements are
// constant average degree and Φ = Θ(1); tests verify the conductance
// empirically.
//
// If maxDegree < 4 it is raised to 4.
func Expander(n, maxDegree int, rng *xrand.RNG) *graph.Graph {
	b := graph.NewBuilder(n)
	AppendExpander(b, n, maxDegree, rng, nil)
	return b.Build()
}

// AppendExpander resets b to n vertices and emits one Expander(n, maxDegree)
// sample into it, consuming exactly the stream Expander consumes (which is
// implemented on top of it). perm is an optional permutation scratch slice;
// when its capacity is at least n the emission is allocation-free in a warm
// builder.
func AppendExpander(b *graph.Builder, n, maxDegree int, rng *xrand.RNG, perm *[]int) {
	b.Reset(n)
	if maxDegree < 4 {
		maxDegree = 4
	}
	if n <= maxDegree+1 {
		AppendClique(b, n)
		return
	}
	var scratch []int
	if perm != nil && cap(*perm) >= n {
		scratch = (*perm)[:n]
	} else {
		scratch = make([]int, n)
		if perm != nil {
			*perm = scratch
		}
	}
	cycles := maxDegree / 2
	for c := 0; c < cycles; c++ {
		rng.PermInto(scratch)
		for i := 0; i < n; i++ {
			b.AddEdge(scratch[i], scratch[(i+1)%n])
		}
	}
}

// AppendNearRegular emits into b, renumbered through vmap (nil vmap is the
// identity), a connected graph on n vertices in which every vertex has
// degree baseDegree except vertex special which has degree specialDegree.
// This is the graph G(A, d1, d2) of Section 5.1. Both degrees must be even,
// 2 <= baseDegree < n, baseDegree <= specialDegree < n.
//
// Construction: start from the circulant with offsets 1..baseDegree/2 (every
// vertex has degree baseDegree and the graph is connected via offset 1), then
// add (specialDegree-baseDegree)/2 extra "chords" through the special vertex:
// for each extra pair, pick two distinct non-adjacent neighbors-to-be u,w of
// special that are adjacent to each other via a circulant edge not incident
// to special, remove {u,w} and add {special,u}, {special,w}. This keeps u and
// w at degree baseDegree and raises special by 2 per operation.
//
// removed1 and extraAdj are optional scratch slices of length >= n
// (allocated when nil or too short); their contents are overwritten. The
// rewiring plan is computed combinatorially over the circulant — every chord
// candidate is an offset-1 edge, and special's adjacency is circulant
// distance plus previously added chords — so no intermediate graphs are
// built and the emitted edges match the historical rebuild-per-rewire
// implementation exactly.
func AppendNearRegular(b *graph.Builder, vmap []int, n, baseDegree, specialDegree, special int, removed1, extraAdj []bool) error {
	if baseDegree < 2 || baseDegree%2 != 0 || specialDegree%2 != 0 ||
		baseDegree >= n || specialDegree >= n || specialDegree < baseDegree {
		return fmt.Errorf("gen: NearRegular invalid parameters n=%d base=%d special=%d",
			n, baseDegree, specialDegree)
	}
	if special < 0 || special >= n {
		return fmt.Errorf("gen: NearRegular special vertex %d out of range", special)
	}
	if len(removed1) < n {
		removed1 = make([]bool, n)
	}
	if len(extraAdj) < n {
		extraAdj = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		removed1[i] = false
		extraAdj[i] = false
	}
	// hasCirc reports adjacency in the base circulant (offsets 1..base/2).
	hasCirc := func(a, c int) bool {
		d := c - a
		if d < 0 {
			d = -d
		}
		if n-d < d {
			d = n - d
		}
		return d >= 1 && d <= baseDegree/2
	}
	extra := (specialDegree - baseDegree) / 2
	removed := 0
	for shift := 2; removed < extra && shift < n-2; shift += 2 {
		u := (special + shift) % n
		w := (u + 1) % n
		if u == special || w == special {
			continue
		}
		// The chord {u, w} must still exist (it is the offset-1 circulant
		// edge at u; chords added to special never coincide with it since
		// u, w != special), and neither endpoint may already be adjacent to
		// special.
		if removed1[u] || hasCirc(special, u) || extraAdj[u] || hasCirc(special, w) || extraAdj[w] {
			continue
		}
		removed1[u] = true
		extraAdj[u] = true
		extraAdj[w] = true
		removed++
	}
	if removed < extra {
		return fmt.Errorf("gen: NearRegular could not reach degree %d (only %d rewires)", specialDegree, baseDegree+2*removed)
	}
	id := func(v int) int {
		if vmap == nil {
			return v
		}
		return vmap[v]
	}
	// Base circulant minus the removed offset-1 chords.
	for v := 0; v < n; v++ {
		for o := 1; o <= baseDegree/2; o++ {
			if o == 1 && removed1[v] {
				continue
			}
			b.AddEdge(id(v), id((v+o)%n))
		}
	}
	// The chords through the special vertex.
	for v := 0; v < n; v++ {
		if extraAdj[v] {
			b.AddEdge(id(special), id(v))
		}
	}
	return nil
}
