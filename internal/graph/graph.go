// Package graph implements the static undirected simple graphs on which the
// rumor-spreading processes run: adjacency structure, degrees, volumes, cut
// sets and basic traversals.
//
// Vertices are the integers 0..n-1. Graphs are immutable after Build; the
// dynamic-network packages expose a fresh *Graph per time step (possibly
// recycling the backing arrays of a retired step via Builder.BuildInto).
package graph

import (
	"fmt"
	"sort"
)

// Edge is an undirected edge {U, V} with U < V in canonical form.
type Edge struct {
	U, V int
}

// Canonical returns the edge with endpoints ordered U <= V.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Builder accumulates edges and produces an immutable Graph.
//
// The builder is allocation-free in steady state: AddEdge appends to a
// reusable edge buffer (duplicates and all), and Build checks in one pass
// whether that buffer is already strictly sorted and distinct — the dynamic
// networks that emit row by row produce it so — and copies it straight into
// the graph if it is. Otherwise two stable counting-sort passes over vertex
// ids order it, the second scattering into the graph's own edge array, and
// the adjacent duplicates are dropped while the degrees are counted: no hash
// map, no comparison sort. Reset recycles the builder (and its internal
// scratch) for the next graph, which is what the dynamic networks do every
// time step.
type Builder struct {
	n     int
	edges []Edge // canonical (U < V) added edges, duplicates allowed

	// Counting-sort scratch, reused across builds.
	count []int  // histograms: U counts in [:n], V counts in [n:]
	byV   []Edge // pass 1 output (sorted by V)
}

// NewBuilder returns a builder for a graph on n vertices.
// It panics if n < 0.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// Reset re-targets the builder to a graph on n vertices, dropping all pending
// edges while keeping the internal buffers for reuse. It panics if n < 0.
func (b *Builder) Reset(n int) {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	b.n = n
	b.edges = b.edges[:0]
}

// Grow reserves room for at least edges additional AddEdge calls, so a
// caller that knows the emission volume up front (the paper constructions
// do) skips the append doubling series on a cold builder.
func (b *Builder) Grow(edges int) {
	if need := len(b.edges) + edges; cap(b.edges) < need {
		grown := make([]Edge, len(b.edges), need)
		copy(grown, b.edges)
		b.edges = grown
	}
}

// AddEdge records the undirected edge {u, v}. Self-loops and duplicate edges
// are ignored (the graph is simple). It panics if either endpoint is out of
// range.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(edgeRangeError{u, v, b.n})
	}
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, Edge{U: u, V: v})
}

// edgeRangeError is AddEdge's panic value. Formatting the message only when
// it is printed keeps fmt off AddEdge's path, so AddEdge inlines into the
// emission loops.
type edgeRangeError struct{ u, v, n int }

func (e edgeRangeError) Error() string {
	return fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", e.u, e.v, e.n)
}

// HasEdge reports whether {u,v} has been added. It scans the pending edge
// buffer in O(edges added); callers that need many membership queries during
// construction should keep their own bitmap.
func (b *Builder) HasEdge(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	for _, e := range b.edges {
		if e.U == u && e.V == v {
			return true
		}
	}
	return false
}

// NumEdges returns the number of distinct edges added so far. Like Build it
// sorts the pending edges unless they are already sorted and distinct, so it
// is O(n + edges added).
func (b *Builder) NumEdges() int {
	if sortedUnique(b.edges) {
		return len(b.edges)
	}
	// Sorting the pending buffer in place changes nothing Build can see.
	b.sortInto(b.edges)
	uniq := 0
	for i, e := range b.edges {
		if i == 0 || e != b.edges[i-1] {
			uniq++
		}
	}
	return uniq
}

// Build produces the immutable graph. The builder remains usable and keeps
// its accumulated edges.
func (b *Builder) Build() *Graph { return b.BuildInto(nil) }

// BuildInto is Build recycling the backing arrays of dst (which must no
// longer be in use) instead of allocating fresh ones when their capacity
// suffices. A nil dst behaves like Build. It returns the built graph (dst
// itself when dst is non-nil).
//
// Dynamic networks use this with two alternating buffers so that a steady
// stream of rebuilt graphs allocates nothing, while the graph returned for
// step t stays valid until the rebuild for step t+2.
func (b *Builder) BuildInto(dst *Graph) *Graph {
	if dst == nil {
		dst = &Graph{}
	}
	dst.n = b.n
	dst.edges = growEdges(dst.edges, len(b.edges))
	if sortedUnique(b.edges) {
		copy(dst.edges, b.edges)
	} else {
		b.sortInto(dst.edges)
	}
	dst.rebuildCSR()
	return dst
}

// sortedUnique reports whether edges is strictly increasing in (U, V) order,
// i.e. already sorted and free of duplicates.
func sortedUnique(edges []Edge) bool {
	for i := 1; i < len(edges); i++ {
		p, e := edges[i-1], edges[i]
		if p.U > e.U || (p.U == e.U && p.V >= e.V) {
			return false
		}
	}
	return true
}

// sortInto writes the pending edges into out (of the same length, which may
// be the pending buffer itself), sorted by (U, V) with duplicates kept: a
// stable counting sort by V into scratch, then one by U into out. Both
// histograms are counted in a single pass over the input, since pass 2
// permutes the same U values pass 1 read.
func (b *Builder) sortInto(out []Edge) {
	n := b.n
	b.count = growInts(b.count, 2*n)
	byU, byV := b.count[:n], b.count[n:]
	clear(b.count)
	for _, e := range b.edges {
		byU[e.U]++
		byV[e.V]++
	}
	sumU, sumV := 0, 0
	for v := 0; v < n; v++ {
		cu, cv := byU[v], byV[v]
		byU[v], byV[v] = sumU, sumV
		sumU += cu
		sumV += cv
	}
	b.byV = growEdges(b.byV, len(b.edges))
	for _, e := range b.edges {
		b.byV[byV[e.V]] = e
		byV[e.V]++
	}
	for _, e := range b.byV {
		out[byU[e.U]] = e
		byU[e.U]++
	}
}

// growInts returns s resized to length n, reusing its capacity when possible
// and growing amortized (append-style) otherwise. Contents are unspecified.
func growInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return append(s[:cap(s)], make([]int, n-cap(s))...)
}

// growEdges returns s resized to length n, reusing its capacity when
// possible. Contents are unspecified. Unlike growInts it allocates exactly n
// when it must grow: a fresh make skips zeroing memory just obtained from
// the OS, where an append-style extension clears it explicitly — megabytes
// for a large clique's edge list.
func growEdges(s []Edge, n int) []Edge {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]Edge, n)
}

// Graph is an immutable undirected simple graph in compressed adjacency form.
type Graph struct {
	n      int
	edges  []Edge
	adjOff []int // adjacency offsets, length n+1
	adj    []int // concatenated sorted neighbor lists, length 2m
	degree []int
	volume int // sum of degrees = 2m
}

// FromEdges builds a graph on n vertices from a list of edges. Duplicate
// edges and self-loops are removed. It panics if any endpoint is out of range.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// rebuildCSR drops adjacent duplicates from g.edges, which must be
// canonical and sorted, counting the degrees in the same pass, then
// recomputes adjOff, adj and volume. Backing arrays are reused when their
// capacity suffices. Neighbor lists come out sorted without an explicit
// sort: scanning edges in (U,V) order appends the below-v neighbors of every
// vertex v in increasing U order first and the above-v neighbors in
// increasing V order after them.
func (g *Graph) rebuildCSR() {
	n := g.n
	g.degree = growInts(g.degree, n)
	clear(g.degree)
	m := 0
	prev := Edge{U: -1}
	for i, e := range g.edges {
		if e == prev {
			continue
		}
		prev = e
		if m != i { // only after a dropped duplicate
			g.edges[m] = e
		}
		m++
		g.degree[e.U]++
		g.degree[e.V]++
	}
	g.edges = g.edges[:m]
	// adjOff[v+1] starts as v's first slot and serves as its fill cursor,
	// which leaves it at v's end — the start of v+1 — once v is filled.
	g.adjOff = growInts(g.adjOff, n+1)
	g.adjOff[0] = 0
	start := 0
	for v := 0; v < n; v++ {
		g.adjOff[v+1] = start
		start += g.degree[v]
	}
	g.adj = growInts(g.adj, 2*m)
	for _, e := range g.edges {
		g.adj[g.adjOff[e.U+1]] = e.V
		g.adjOff[e.U+1]++
		g.adj[g.adjOff[e.V+1]] = e.U
		g.adjOff[e.V+1]++
	}
	g.volume = 2 * m
}

// StarInto builds the star K_{1,n-1} with the given center directly in
// compressed form, recycling dst's backing arrays (nil dst allocates a fresh
// graph). It produces exactly the graph the builder would for the same edge
// set — canonical sorted edges, sorted neighbor lists — but in one O(n) fill
// with no counting-sort passes, which makes it the rebuild primitive of the
// dynamic-star adversary where the star is re-emitted every time step.
// It panics if center is out of range.
func StarInto(dst *Graph, n, center int) *Graph {
	if center < 0 || center >= n {
		panic(fmt.Sprintf("graph: star center %d out of range for n=%d", center, n))
	}
	dst = reshape(dst, n, n-1)
	// Canonical sorted edge list: {v, center} for v < center, then {center, v}
	// for v > center.
	for v := 0; v < center; v++ {
		dst.edges[v] = Edge{U: v, V: center}
	}
	for v := center + 1; v < n; v++ {
		dst.edges[v-1] = Edge{U: center, V: v}
	}
	// CSR: every leaf's neighbor list is [center]; the center's list is every
	// other vertex in increasing order.
	off := 0
	for v := 0; v < n; v++ {
		dst.adjOff[v] = off
		if v == center {
			dst.degree[v] = n - 1
			for u := 0; u < n; u++ {
				if u != center {
					dst.adj[off] = u
					off++
				}
			}
		} else {
			dst.degree[v] = 1
			dst.adj[off] = center
			off++
		}
	}
	dst.adjOff[n] = off
	return dst
}

// reshape readies dst (nil allocates a fresh graph) to be filled in place
// with n vertices and m edges: every array has its final length, recycling
// dst's backing arrays when their capacity suffices, and the volume is set.
// The contents are left for the caller to write.
func reshape(dst *Graph, n, m int) *Graph {
	if dst == nil {
		dst = &Graph{}
	}
	dst.n = n
	dst.edges = growEdges(dst.edges, m)
	dst.degree = growInts(dst.degree, n)
	dst.adjOff = growInts(dst.adjOff, n+1)
	dst.adj = growInts(dst.adj, 2*m)
	dst.volume = 2 * m
	return dst
}

// CliqueInto builds the complete graph K_n directly in compressed form,
// recycling dst's backing arrays (nil dst allocates a fresh graph). Like
// StarInto it produces exactly the graph the builder would for the same
// edge set, but writes the edge list and CSR directly: at n=1024 the
// builder's counting sorts over the n(n-1)/2 edges cost several times the
// fill and a second copy of the edge list. It panics if n < 0.
func CliqueInto(dst *Graph, n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	dst = reshape(dst, n, n*(n-1)/2)
	i := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			dst.edges[i] = Edge{U: u, V: v}
			i++
		}
	}
	// Every neighbor list is every other vertex in increasing order.
	off := 0
	for v := 0; v < n; v++ {
		dst.adjOff[v] = off
		dst.degree[v] = n - 1
		for u := 0; u < n; u++ {
			if u != v {
				dst.adj[off] = u
				off++
			}
		}
	}
	dst.adjOff[n] = off
	return dst
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return g.degree[v] }

// Volume returns the sum of all degrees, i.e. 2*M().
func (g *Graph) Volume() int { return g.volume }

// Neighbors returns the sorted neighbor list of v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int {
	return g.adj[g.adjOff[v]:g.adjOff[v+1]]
}

// Neighbor returns the i-th neighbor of v (0-based, in sorted order).
func (g *Graph) Neighbor(v, i int) int {
	return g.adj[g.adjOff[v]+i]
}

// Edges returns all edges in canonical sorted order. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// HasEdge reports whether {u,v} is an edge (binary search over the sorted
// neighbor list of the lower-degree endpoint).
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return false
	}
	if g.degree[u] > g.degree[v] {
		u, v = v, u
	}
	nb := g.Neighbors(u)
	i := sort.SearchInts(nb, v)
	return i < len(nb) && nb[i] == v
}

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, d := range g.degree {
		if d > max {
			max = d
		}
	}
	return max
}

// MinDegree returns the minimum vertex degree (0 for a graph with no
// vertices).
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	min := g.degree[0]
	for _, d := range g.degree[1:] {
		if d < min {
			min = d
		}
	}
	return min
}

// AverageDegree returns Volume()/N() (0 for an empty graph).
func (g *Graph) AverageDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(g.volume) / float64(g.n)
}

// IsRegular reports whether every vertex has the same degree, and that degree.
func (g *Graph) IsRegular() (bool, int) {
	if g.n == 0 {
		return true, 0
	}
	d := g.degree[0]
	for _, dd := range g.degree[1:] {
		if dd != d {
			return false, 0
		}
	}
	return true, d
}

// VolumeOf returns the sum of degrees over the vertices marked true in member.
// member must have length N().
func (g *Graph) VolumeOf(member []bool) int {
	vol := 0
	for v, in := range member {
		if in {
			vol += g.degree[v]
		}
	}
	return vol
}

// AppendCutEdges appends the edges with exactly one endpoint in the set
// marked true in member to dst and returns the extended slice. member must
// have length N(). Callers that re-derive cuts per step pass a recycled dst
// to keep the scan allocation-free.
func (g *Graph) AppendCutEdges(dst []Edge, member []bool) []Edge {
	for _, e := range g.edges {
		if member[e.U] != member[e.V] {
			dst = append(dst, e)
		}
	}
	return dst
}

// CutEdges returns the edges with exactly one endpoint in the set marked true
// in member. member must have length N().
func (g *Graph) CutEdges(member []bool) []Edge {
	return g.AppendCutEdges(nil, member)
}

// CutSize returns the number of edges crossing the set marked true in member.
func (g *Graph) CutSize(member []bool) int {
	count := 0
	for _, e := range g.edges {
		if member[e.U] != member[e.V] {
			count++
		}
	}
	return count
}

// InducedSubgraph returns the subgraph induced by the vertices marked true in
// member, together with the mapping from new vertex ids to original ids.
//
// Because g.edges is sorted and the renumbering is monotone, the surviving
// edges are already sorted and distinct, so the subgraph is assembled
// directly in compressed form without a sort.
func (g *Graph) InducedSubgraph(member []bool) (*Graph, []int) {
	oldToNew := make([]int, g.n)
	var newToOld []int
	for v := 0; v < g.n; v++ {
		if member[v] {
			oldToNew[v] = len(newToOld)
			newToOld = append(newToOld, v)
		} else {
			oldToNew[v] = -1
		}
	}
	var edges []Edge
	for _, e := range g.edges {
		if member[e.U] && member[e.V] {
			edges = append(edges, Edge{U: oldToNew[e.U], V: oldToNew[e.V]})
		}
	}
	sub := &Graph{n: len(newToOld), edges: edges}
	sub.rebuildCSR()
	return sub, newToOld
}

// Validate checks internal invariants; it returns a descriptive error if any
// is violated. A nil error means the structure is consistent.
func (g *Graph) Validate() error {
	if len(g.degree) != g.n || len(g.adjOff) != g.n+1 {
		return fmt.Errorf("graph: inconsistent slice lengths")
	}
	sumDeg := 0
	for v := 0; v < g.n; v++ {
		sumDeg += g.degree[v]
		if g.adjOff[v+1]-g.adjOff[v] != g.degree[v] {
			return fmt.Errorf("graph: adjacency offsets disagree with degree at %d", v)
		}
	}
	if sumDeg != 2*len(g.edges) {
		return fmt.Errorf("graph: degree sum %d != 2m %d", sumDeg, 2*len(g.edges))
	}
	if g.volume != sumDeg {
		return fmt.Errorf("graph: cached volume %d != degree sum %d", g.volume, sumDeg)
	}
	for v := 0; v < g.n; v++ {
		nb := g.Neighbors(v)
		for i, u := range nb {
			if u == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if i > 0 && nb[i-1] >= u {
				return fmt.Errorf("graph: neighbor list of %d not strictly sorted", v)
			}
			if !g.HasEdge(u, v) {
				return fmt.Errorf("graph: asymmetric adjacency %d-%d", v, u)
			}
		}
	}
	return nil
}
